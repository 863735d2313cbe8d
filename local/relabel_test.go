package local

import (
	"math/rand"
	"reflect"
	"testing"

	"deltacolor/graph"
)

// ablated is the relabel-off configuration the invariance tests compare
// the default (zero) Config against.
var ablated = Config{NoRelabel: true}

// scrambledGraph returns a connected graph whose labels are deliberately
// scattered (a randomly relabeled cycle plus chords), so the locality
// order is guaranteed to differ from the identity.
func scrambledGraph(n int, seed int64) *graph.G {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustEdge(perm[i], perm[(i+1)%n])
	}
	for k := 0; k < n/4; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustEdge(u, v)
		}
	}
	return g
}

// TestRelabelActuallyRelabels guards the test premise: on a scrambled
// graph the internal order must differ from the identity (otherwise the
// suite below would vacuously pass).
func TestRelabelActuallyRelabels(t *testing.T) {
	net := NewNetwork(scrambledGraph(64, 3), 1)
	if !net.Relabeled() {
		t.Fatal("scrambled graph produced an identity locality order; invariance tests would be vacuous")
	}
	if ablated.NewNetwork(scrambledGraph(64, 3), 1).Relabeled() {
		t.Fatal("Config.NoRelabel did not ablate the relabeling")
	}
}

// TestRelabelIDAndPortSurface: with relabeling active, every node must
// still observe its external ID, the external port numbering (port p
// leads to g.Neighbors(id)[p]), its external input, and the output array
// must be in external order.
func TestRelabelIDAndPortSurface(t *testing.T) {
	g := scrambledGraph(120, 7)
	net := NewNetwork(g, 1)
	if !net.Relabeled() {
		t.Fatal("premise: network must be relabeled")
	}
	n := g.N()
	inputs := make([]any, n)
	for v := 0; v < n; v++ {
		inputs[v] = v*10 + 1
	}
	seen := make([]bool, n)
	outs := net.RunWithInput(func(ctx *Ctx) {
		id := ctx.ID()
		if id < 0 || id >= ctx.N() {
			t.Errorf("ctx.ID() = %d outside [0,%d)", id, ctx.N())
		}
		if seen[id] {
			t.Errorf("duplicate ctx.ID() %d", id)
		}
		seen[id] = true
		if ctx.Degree() != g.Deg(id) {
			t.Errorf("node %d: Degree() = %d, want %d", id, ctx.Degree(), g.Deg(id))
		}
		if got := ctx.Input().(int); got != id*10+1 {
			t.Errorf("node %d: Input() = %d, want %d", id, got, id*10+1)
		}
		ctx.BroadcastInt(id)
		ctx.Next()
		for p := 0; p < ctx.Degree(); p++ {
			got, ok := ctx.RecvInt(p)
			if !ok || got != g.Neighbors(id)[p] {
				t.Errorf("node %d port %d: received %v (ok=%v), want neighbor %d", id, p, got, ok, g.Neighbors(id)[p])
			}
		}
		ctx.SetOutput(id)
	}, inputs)
	for v := 0; v < n; v++ {
		if outs[v] != v {
			t.Fatalf("output order broken: outs[%d] = %v", v, outs[v])
		}
	}
}

// runOutcome captures every observable surface of one run for the
// relabel-on/off equivalence checks.
type runOutcome struct {
	outs   []any
	rounds int
	dead   []DeadSend
	late   []DeadSend
	stats  MessageStats
}

func captureRun(cfg Config, g *graph.G, seed int64, f NodeFunc) runOutcome {
	net := cfg.NewNetwork(g, seed)
	net.TrackDeadSends(true)
	net.EnableMessageStats()
	outs := net.Run(f)
	return runOutcome{
		outs:   outs,
		rounds: net.Rounds(),
		dead:   net.DeadSends(),
		late:   net.LateDeadSends(),
		stats:  *net.MessageStats(),
	}
}

// TestRelabelInvariance: relabeling on vs off must produce identical
// outputs, round counts, dead-send reports (external From/To) and
// message stats for a protocol that uses randomness, mixed message
// paths, and irregular halting.
func TestRelabelInvariance(t *testing.T) {
	proto := func(ctx *Ctx) {
		sum := ctx.Rand().Intn(1000)
		rounds := 2 + ctx.ID()%4
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				ctx.BroadcastInt(sum)
			} else {
				ctx.Broadcast([2]int{ctx.ID(), sum})
			}
			ctx.Next()
			for p := 0; p < ctx.Degree(); p++ {
				switch m := ctx.Recv(p).(type) {
				case int:
					sum += m
				case [2]int:
					sum += m[1]
				}
			}
		}
		ctx.SetOutput(sum)
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := scrambledGraph(150, seed)
		on, off := captureRun(Config{}, g, seed, proto), captureRun(ablated, g, seed, proto)
		if !reflect.DeepEqual(on, off) {
			t.Fatalf("seed %d: relabel-on and relabel-off runs differ:\non:  %+v\noff: %+v", seed, on, off)
		}
		if len(on.dead) == 0 {
			t.Fatalf("seed %d: protocol staged no dead sends; DeadSend surface untested", seed)
		}
	}
}

// TestRelabelGatherBall: the flooded ball must report external IDs and
// external adjacency regardless of relabeling.
func TestRelabelGatherBall(t *testing.T) {
	g := scrambledGraph(80, 5)
	collect := func(cfg Config) []*Ball {
		return GatherStepped(cfg.NewNetwork(g, 1), 2)
	}
	on, off := collect(Config{}), collect(ablated)
	for v := range on {
		bOn, bOff := on[v], off[v]
		if bOn.Center != v {
			t.Fatalf("ball center %d at external index %d", bOn.Center, v)
		}
		// Flat balls compare in discovery order too, not just as sets.
		if !reflect.DeepEqual(bOn, bOff) {
			t.Fatalf("node %d: relabeled ball differs from ablated ball", v)
		}
		// Every adjacency the ball reports must match the external graph.
		for i, adj := range bOn.Adj {
			if adj == nil {
				continue
			}
			id := int(bOn.IDs[i])
			if len(adj) != g.Deg(id) {
				t.Fatalf("ball of %d: node %d adjacency has %d entries, want %d", v, id, len(adj), g.Deg(id))
			}
			for j, u := range adj {
				if g.Neighbors(id)[j] != int(u) {
					t.Fatalf("ball of %d: node %d adjacency[%d] = %d, want %d", v, id, j, u, g.Neighbors(id)[j])
				}
			}
		}
	}
}

// TestRelabelQuotientNetwork: quotient construction consumes external
// member IDs and its own network relabels independently; outputs must be
// identical with relabeling on and off at both levels.
func TestRelabelQuotientNetwork(t *testing.T) {
	parent := scrambledGraph(90, 9)
	var groups [][]int
	for v := 0; v+2 < parent.N(); v += 9 {
		groups = append(groups, []int{v, v + 1, v + 2})
	}
	proto := func(ctx *Ctx) {
		sum := ctx.ID()
		for i := 0; i < 2; i++ {
			ctx.BroadcastInt(sum)
			ctx.Next()
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.RecvInt(p); ok {
					sum += m
				}
			}
		}
		ctx.SetOutput(sum)
	}
	run := func(cfg Config) []any { return QuotientNetwork(parent, groups, 3, cfg).Run(proto) }
	on, off := run(Config{}), run(ablated)
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("quotient outputs differ:\non:  %v\noff: %v", on, off)
	}
	if len(on) != len(groups) {
		t.Fatalf("quotient has %d outputs, want one per group (%d)", len(on), len(groups))
	}
}

// TestRelabelStepped: the stepped executor keeps its per-node state by
// internal index; outputs and rounds must nevertheless be identical to
// the ablated run and to the blocking form.
func TestRelabelStepped(t *testing.T) {
	g := scrambledGraph(130, 11)
	run := func(cfg Config) ([]any, int) {
		net := cfg.NewNetwork(g, 7)
		outs := RunStepped(net, intFloodStepped(3))
		return outs, net.Rounds()
	}
	onOuts, onRounds := run(Config{})
	offOuts, offRounds := run(ablated)
	if onRounds != offRounds || !reflect.DeepEqual(onOuts, offOuts) {
		t.Fatalf("stepped relabel-on differs from relabel-off (rounds %d vs %d)", onRounds, offRounds)
	}
}
