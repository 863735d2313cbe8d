package local_test

import (
	"math/rand"
	"testing"

	"deltacolor"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

func TestSetFaultPlanRejectsInvalid(t *testing.T) {
	net := local.NewNetwork(gen.Path(3), 1)
	if err := net.SetFaultPlan(&local.FaultPlan{DropProb: 0.5}); err == nil {
		t.Fatal("attach of invalid plan succeeded")
	}
	if net.FaultPlan() != nil {
		t.Fatal("invalid plan left attached")
	}
	// ColorUnderFaults is where a plan enters a pipeline's Config: it must
	// return the plan's own Validate error before building any network.
	bad := &local.FaultPlan{DropProb: 2}
	want := bad.Validate()
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 32, 4)
	res, stats, err := deltacolor.ColorUnderFaults(g, deltacolor.Options{Seed: 1}, bad)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("ColorUnderFaults(invalid plan) error = %v, want %v", err, want)
	}
	if res != nil || stats != nil {
		t.Fatal("ColorUnderFaults returned results for an invalid plan")
	}
}
