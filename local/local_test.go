package local

import (
	"testing"

	"deltacolor/graph"
)

func pathGraph(n int) *graph.G {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustEdge(i, i+1)
	}
	return g
}

func cycleGraph(n int) *graph.G {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustEdge(i, (i+1)%n)
	}
	return g
}

func TestRunNoRounds(t *testing.T) {
	g := pathGraph(4)
	net := NewNetwork(g, 1)
	outs := net.Run(func(ctx *Ctx) {
		ctx.SetOutput(ctx.ID() * 2)
	})
	if net.Rounds() != 0 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	for v, o := range outs {
		if o.(int) != v*2 {
			t.Fatalf("output[%d]=%v", v, o)
		}
	}
}

func TestMessageDelivery(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g, 1)
	outs := net.Run(func(ctx *Ctx) {
		ctx.Broadcast(ctx.ID())
		ctx.Next()
		sum := 0
		for p := 0; p < ctx.Degree(); p++ {
			if m := ctx.Recv(p); m != nil {
				sum += m.(int)
			}
		}
		ctx.SetOutput(sum)
	})
	if net.Rounds() != 1 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	// Node 0 hears 1; node 1 hears 0+2; node 2 hears 1.
	want := []int{1, 2, 1}
	for v := range want {
		if outs[v].(int) != want[v] {
			t.Fatalf("node %d heard %v, want %d", v, outs[v], want[v])
		}
	}
}

func TestPortDirectionality(t *testing.T) {
	// Each node sends its ID on port 0 only; the receiver must see it on
	// the reverse port.
	g := graph.New(2)
	g.MustEdge(0, 1)
	net := NewNetwork(g, 1)
	outs := net.Run(func(ctx *Ctx) {
		ctx.Send(0, ctx.ID()+100)
		ctx.Next()
		ctx.SetOutput(ctx.Recv(0))
	})
	if outs[0].(int) != 101 || outs[1].(int) != 100 {
		t.Fatalf("outs=%v", outs)
	}
}

func TestHaltedNodeMessagesStillDelivered(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	outs := net.Run(func(ctx *Ctx) {
		if ctx.ID() == 0 {
			ctx.Broadcast("bye")
			return // halt immediately after staging
		}
		ctx.Next()
		ctx.SetOutput(ctx.Recv(0))
	})
	if outs[1] != "bye" {
		t.Fatalf("node 1 got %v", outs[1])
	}
}

func TestMultiRoundFlood(t *testing.T) {
	// Count distinct IDs heard after r rounds of flooding on a cycle.
	n, r := 12, 3
	g := cycleGraph(n)
	net := NewNetwork(g, 1)
	outs := net.Run(func(ctx *Ctx) {
		known := map[int]bool{ctx.ID(): true}
		for i := 0; i < r; i++ {
			snapshot := make([]int, 0, len(known))
			for id := range known {
				snapshot = append(snapshot, id)
			}
			ctx.Broadcast(snapshot)
			ctx.Next()
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.Recv(p).([]int); ok {
					for _, id := range m {
						known[id] = true
					}
				}
			}
		}
		ctx.SetOutput(len(known))
	})
	if net.Rounds() != r {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	for v, o := range outs {
		if o.(int) != 2*r+1 {
			t.Fatalf("node %d knows %v ids, want %d", v, o, 2*r+1)
		}
	}
}

func TestRunWithInput(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g, 1)
	inputs := []any{10, 20, 30}
	outs := net.RunWithInput(func(ctx *Ctx) {
		ctx.SetOutput(ctx.Input().(int) + 1)
	}, inputs)
	for v := range outs {
		if outs[v].(int) != inputs[v].(int)+1 {
			t.Fatal("inputs not wired")
		}
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	g := pathGraph(4)
	draw := func(seed int64) []int64 {
		net := NewNetwork(g, seed)
		outs := net.Run(func(ctx *Ctx) { ctx.SetOutput(ctx.Rand().Int63()) })
		vals := make([]int64, len(outs))
		for i, o := range outs {
			vals[i] = o.(int64)
		}
		return vals
	}
	a, b, c := draw(1), draw(1), draw(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestStaggeredHalts(t *testing.T) {
	// Node v halts after v rounds; later nodes must keep making progress.
	g := cycleGraph(6)
	net := NewNetwork(g, 1)
	outs := net.Run(func(ctx *Ctx) {
		for i := 0; i < ctx.ID(); i++ {
			ctx.Next()
		}
		ctx.SetOutput(ctx.ID())
	})
	if net.Rounds() < 5 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	for v, o := range outs {
		if o.(int) != v {
			t.Fatal("outputs wrong")
		}
	}
}

func TestGatherBall(t *testing.T) {
	g := cycleGraph(10)
	net := NewNetwork(g, 1)
	balls := GatherStepped(net, 3)
	if net.Rounds() != 3 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	b0 := balls[0]
	// Existence known for distance <= 3: nodes 7,8,9,0,1,2,3 on C10.
	if len(b0.IDs) != 7 {
		t.Fatalf("node 0 knows %d nodes, want 7", len(b0.IDs))
	}
	// Adjacency complete for distance <= 2, absent at distance 3.
	for i, id := range b0.IDs {
		want := 2
		if id == 7 || id == 3 {
			want = 0
		}
		if len(b0.Adj[i]) != want {
			t.Fatalf("adjacency of %d = %v, want %d entries", id, b0.Adj[i], want)
		}
	}
}

func TestAccountant(t *testing.T) {
	var a Accountant
	a.Charge("x", 3)
	a.Charge("y", 4)
	if a.Total() != 7 {
		t.Fatalf("total=%d", a.Total())
	}
	if len(a.Phases()) != 2 {
		t.Fatal("phases")
	}
	if s := a.String(); s != "x:3 + y:4 = 7" {
		t.Fatalf("string=%q", s)
	}
}
