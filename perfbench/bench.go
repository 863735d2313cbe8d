package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/internal/core"
	"deltacolor/verify"
)

// setups is how many times a run sets up (generate, check, warm up);
// setup_s is the median. Set-up j warms up on instance j, so that one
// costly graph does not set the figure of a many-graph workload.
const setups = 5

// instance is one input of the closed loop: a graph and the algorithm seed
// every call on it uses.
type instance struct {
	g     *graph.G
	delta int
	seed  int64
}

// client is the closed-loop caller: it makes one Color call at a time and
// checks every result outside the timed region.
type client struct {
	alg  deltacolor.Algorithm
	inst []instance

	attempted, failed int
	// first holds each instance's first result, which every later call on
	// that instance must reproduce exactly.
	first map[int]fingerprint
}

type fingerprint struct {
	rounds int
	colors uint64
}

// sample is one verified call.
type sample struct {
	wall  time.Duration
	alloc uint64 // bytes allocated during the call
	gcs   uint32 // GC cycles completed during the call
	res   *deltacolor.Result
}

// call runs and verifies one Color call on instance i; ok is false when the
// call failed (and was counted as failed).
func (c *client) call(i int) (s sample, ok bool) {
	in := c.inst[i]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := deltacolor.Color(in.g, deltacolor.Options{Algorithm: c.alg, Seed: in.seed})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	c.attempted++
	if err == nil {
		err = verify.DeltaColoring(in.g, res.Colors, in.delta)
	}
	if err == nil {
		fp := fingerprint{res.Rounds, hashColors(res.Colors)}
		if prev, seen := c.first[i]; !seen {
			c.first[i] = fp
		} else if prev != fp {
			err = fmt.Errorf("not reproduced: rounds %d, then %d", prev.rounds, fp.rounds)
		}
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s instance %d (seed %d): %v\n", c.alg, i, in.seed, err)
		return sample{}, false
	}
	return sample{
		wall:  wall,
		alloc: after.TotalAlloc - before.TotalAlloc,
		gcs:   after.NumGC - before.NumGC,
		res:   res,
	}, true
}

func hashColors(colors []int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range colors {
		b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// setUp generates the workload's instances from the seed, checks each graph
// with core.CheckNice and makes one untimed warm-up call, on instance warm
// modulo the instance count; it returns the time that took. A failed
// warm-up call is counted in failed, not fatal. The previous set-up's
// instances are collected first, outside the timing, so that their garbage
// does not land in this one.
func (c *client) setUp(w workload, seed int64, warm int) (time.Duration, error) {
	c.inst = nil
	runtime.GC()
	start := time.Now()
	graphs := rand.New(rand.NewSource(seed))
	seeds := rand.New(rand.NewSource(seed ^ 0x5eed5))
	for i := 0; i < w.instances; i++ {
		g, err := w.graph(graphs)
		if err != nil {
			return 0, fmt.Errorf("generate graph %d: %w", i, err)
		}
		delta, err := core.CheckNice(g, 3)
		if err != nil {
			return 0, fmt.Errorf("check graph %d: %w", i, err)
		}
		c.inst = append(c.inst, instance{g, delta, seeds.Int63()})
	}
	prep := time.Since(start)
	s, _ := c.call(warm % len(c.inst))
	return prep + s.wall, nil
}

// runEndToEnd measures untraced calls in whole passes over the instances,
// until a pass ends after the given seconds, and reports the end-to-end
// metrics. Whole passes give every instance the same weight however fast
// the host is. rounds_p50 and alloc_mb_per_call come from the first pass,
// so they are exact for the seed.
//
// The timings are reported in reference units: a benchmark-owned reference
// pass (hostRef) runs before the first call and after every call, and each
// call's wall is divided by the mean pass time measured just before and
// just after it. On a shared host the speed of the one core a run gets
// can halve for seconds at a time; the reference pass slows with it, so the
// ratio follows the program much more than the host. The raw wall seconds
// are printed on the info line.
func runEndToEnd(w workload, seed int64, seconds int) (report, error) {
	c := &client{alg: w.alg, first: map[int]fingerprint{}}
	var setupS []float64
	for len(setupS) < setups {
		d, err := c.setUp(w, seed, len(setupS))
		if err != nil {
			return report{}, err
		}
		setupS = append(setupS, d.Seconds())
	}
	ref := newHostRef(c.inst[0].g, refVisits)
	runtime.GC()
	var walls, refWalls, rounds []float64
	var alloc uint64
	nodes, passes := 0, 0
	refUnits := 0.0 // summed call walls, each in units of its reference pass
	before := ref.sample(0)
	dur := time.Duration(seconds) * time.Second
	for start := time.Now(); passes == 0 || time.Since(start) < dur; passes++ {
		for i, in := range c.inst {
			s, ok := c.call(i)
			after := ref.sample(s.wall / refShare)
			around := (before + after) / 2
			before = after
			if !ok {
				continue
			}
			walls = append(walls, s.wall.Seconds())
			refWalls = append(refWalls, float64(s.wall.Nanoseconds())/1e6/around)
			refUnits += refWalls[len(refWalls)-1]
			nodes += in.g.N()
			if passes == 0 {
				rounds = append(rounds, float64(s.res.Rounds))
				alloc += s.alloc
			}
		}
	}
	fmt.Printf("perfbench workload=%s alg=%s n=%d instances=%d seed=%d gomaxprocs=%d passes=%d calls=%d setups=%d color_s_p50=%.4f ref_pass_ms=%.4f host.ref_ms=%.4f max_rss_mb=%.1f\n",
		w.name, w.alg, c.inst[0].g.N(), len(c.inst), seed, runtime.GOMAXPROCS(0), passes, len(walls), len(setupS), median(walls), ref.ms(), hostRefMs(c.inst[0].g), maxRSSMB())
	return report{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics: map[string]metric{
			"color_ref_p50":     {median(refWalls), "ref"},
			"nodes_per_ref":     {ratio(float64(nodes), refUnits), "nodes/ref"},
			"rounds_p50":        {median(rounds), "rounds"},
			"alloc_mb_per_call": {ratio(float64(alloc)/(1<<20), float64(len(rounds))), "MB"},
			"setup_s":           {median(setupS), "s"},
		},
	}, nil
}

// maxRSSMB is the process's peak resident set. It is printed, not reported
// as a metric: it follows the moments at which the garbage collector
// happens to run, and its spread over the seeds of one workload reached
// 0.2 to 0.3 of its median.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// refVisits is the size of the reference pass that the end-to-end
// timings are divided by: a few milliseconds on a 2-core x86 host.
const refVisits = 1 << 18

// refShare sets how long the reference runs after each call: 1/refShare of
// the call's wall, and at least one pass, so that a long call is compared
// with more than one short reading.
const refShare = 20

// hostRef is a benchmark-owned copy of a graph's adjacency and a linear,
// single-threaded pass over it: greedy first-fit coloring in ID order,
// repeated to a fixed number of node visits. The library never runs it, so
// a change to the library cannot move it; only the host's speed does.
type hostRef struct {
	off, adj      []int32
	colors, stamp []int32
	mark          int32 // stamp[c] == mark: color c is taken around the current node
	passes        int
}

func newHostRef(g *graph.G, visits int) *hostRef {
	h := &hostRef{
		off:    make([]int32, g.N()+1),
		colors: make([]int32, g.N()),
		stamp:  make([]int32, g.MaxDegree()+2),
		passes: visits/g.N() + 1,
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			h.adj = append(h.adj, int32(u))
		}
		h.off[v+1] = int32(len(h.adj))
	}
	return h
}

// sample runs the pass at least once and until it has run for d, and
// returns the mean wall time of one pass in milliseconds.
func (h *hostRef) sample(d time.Duration) float64 {
	var total float64
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < d; n++ {
		total += h.ms()
	}
	return total / float64(n)
}

// ms runs the pass once and returns its wall time in milliseconds.
func (h *hostRef) ms() float64 {
	start := time.Now()
	for p := 0; p < h.passes; p++ {
		for v := range h.colors {
			h.colors[v] = -1
		}
		for v := range h.colors {
			h.mark++
			for _, u := range h.adj[h.off[v]:h.off[v+1]] {
				if c := h.colors[u]; c >= 0 {
					h.stamp[c] = h.mark
				}
			}
			c := int32(0)
			for h.stamp[c] == h.mark {
				c++
			}
			h.colors[v] = c
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// hostRefMs returns the median of five reference passes of about 2^20 node
// visits over g. It tracks host speed from run to run.
func hostRefMs(g *graph.G) float64 {
	h := newHostRef(g, 1<<20)
	var times []float64
	for r := 0; r < 5; r++ {
		times = append(times, h.ms())
	}
	return median(times)
}

// median returns the median of xs, or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
