package gallai

import (
	"encoding/binary"
	"slices"

	"deltacolor/graph"
)

// FindDCC searches for a degree-choosable component of radius at most r
// containing v. Detection is sound: a non-nil result always induces a
// 2-connected subgraph that is neither a clique nor an induced odd cycle,
// with radius <= r.
//
// The search is built around the canonical small DCCs:
//
//	(1) a short cycle through v whose node set already induces a DCC
//	    (even chordless cycle, or any cycle with chords that is not a
//	    clique);
//	(2) a short cycle through v plus one "ear" node attached twice
//	    (theta-like subgraphs such as K4 minus an edge);
//	(3) for small balls, the block of v (exact but more expensive).
//
// It can miss deeply-buried DCCs; the Δ-coloring pipeline tolerates
// incompleteness (missed DCCs shift work to the shattering phases and the
// repair safety net, never breaking correctness), which is why a bounded
// heuristic stands in for the paper's exhaustive radius-r ball search.
//
// FindDCC is one-shot: it allocates an n-sized scratch per call. Searching
// many nodes of one graph is SelectDCCs' job, which reuses one scratch.
func FindDCC(g *graph.G, v, r int) []int {
	if r < 1 {
		return nil
	}
	return newDCCScratch(g.N()).findDCC(g, v, r)
}

// maxCycles is how many of the shortest cycles through v the search
// tries before giving up on (1) and (2).
const maxCycles = 8

// maxBlockBall is the largest radius-2r ball the exact block search (3)
// is run on.
const maxBlockBall = 48

// dccScratch is the working memory of a DCC search session, reused across
// the per-node searches of one SelectDCCs call so that a search costs
// O(ball) instead of O(n). A node's mark is valid only while its stamp
// equals the epoch; next() bumps the epoch, which clears every mark in
// O(1). Node IDs must fit in int32.
type dccScratch struct {
	epoch uint32
	mark  []mark

	order  []int32           // scanClosers: BFS visit order, level by level
	best   [maxCycles]closer // scanClosers: the first closers in sort order
	nBest  int               // how many of best are filled
	nodes  []int             // backing store of cycles
	cycles [][]int           // the short cycles through the root, sorted node sets
	cand   []int             // ear candidates, first-seen order
	ext    []int             // a cycle plus one ear
	ball   []int             // the small ball of the block search

	off, adj []int32 // induce: CSR adjacency of the induced set, by index in the set
	queue    []int32 // bfsSet: queue over set indices
	setDist  []int32 // bfsSet: depth over set indices
}

// mark is one node's per-epoch state, kept in one struct so that a
// visit touches one cache line.
type mark struct {
	stamp uint32
	// idx is the node's position in the BFS order (scanClosers, whose
	// level boundaries turn it into a depth), its index in the induced
	// set (induce), or its attachment count, -1 on the cycle
	// (earCandidates).
	idx    int32
	parent int32 // BFS parent, -1 at the root
	branch int32 // the root's neighbor the tree path leaves through, -1 at the root
}

// closer is a non-tree edge x–y (x < y) joining two different BFS
// branches: with the two tree paths back to the root it closes a cycle of
// length depth(x)+depth(y)+1 through the root. pos and port place it in
// scan order: x's position in the BFS order, y's index in x's adjacency.
type closer struct{ x, y, length, pos, port int32 }

// before orders closers by length, ties in scan order. (pos, port) is
// unique per edge, so this is the stable length sort of the scan.
func (c closer) before(d closer) bool {
	if c.length != d.length {
		return c.length < d.length
	}
	if c.pos != d.pos {
		return c.pos < d.pos
	}
	return c.port < d.port
}

func newDCCScratch(n int) *dccScratch {
	return &dccScratch{mark: make([]mark, n)}
}

// next starts a new epoch, invalidating every mark.
func (s *dccScratch) next() uint32 {
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps could alias the new epoch
		clear(s.mark)
		s.epoch = 1
	}
	return s.epoch
}

func (s *dccScratch) findDCC(g *graph.G, v, r int) []int {
	if r < 1 {
		return nil
	}
	// (1)+(2): cycle-based search inside the radius-r ball.
	if got := s.cycleDCC(g, v, r); got != nil {
		return got
	}
	// (3): exact block search on small balls only.
	if ball := s.smallBall(g, v, 2*r, maxBlockBall); ball != nil {
		return blockDCC(g, ball, v, r)
	}
	return nil
}

// cycleDCC finds short cycles through v and upgrades them to DCCs. The
// result is a fresh slice; everything else lives in the scratch.
func (s *dccScratch) cycleDCC(g *graph.G, v, r int) []int {
	for _, cyc := range s.shortCyclesThrough(g, v, r) {
		s.induce(g, cyc)
		if !s.radiusAtMost(r) {
			continue
		}
		if s.cycleSetIsDCC() {
			return slices.Clone(cyc)
		}
		// The cycle induces a clique (triangle) or a chordless odd cycle:
		// try attaching an ear node x adjacent to >= 2 cycle nodes.
		for _, x := range s.earCandidates(g, cyc) {
			s.ext = append(append(s.ext[:0], cyc...), x)
			s.induce(g, s.ext)
			if !s.radiusAtMost(r) {
				continue
			}
			if s.cycleSetIsDCC() {
				return slices.Clone(s.ext)
			}
		}
	}
	return nil
}

// earCandidates returns the nodes outside cyc adjacent to at least two
// cycle nodes, in the order a scan of cyc's adjacency first meets them.
func (s *dccScratch) earCandidates(g *graph.G, cyc []int) []int {
	e := s.next()
	for _, u := range cyc {
		s.mark[u] = mark{stamp: e, idx: -1}
	}
	s.cand = s.cand[:0]
	for _, u := range cyc {
		for _, x := range g.Neighbors(u) {
			switch m := &s.mark[x]; {
			case m.stamp != e:
				*m = mark{stamp: e, idx: 1}
				s.cand = append(s.cand, x)
			case m.idx > 0:
				m.idx++
			}
		}
	}
	k := 0
	for _, x := range s.cand {
		if s.mark[x].idx >= 2 {
			s.cand[k] = x
			k++
		}
	}
	s.cand = s.cand[:k]
	return s.cand
}

// shortCyclesThrough returns the node sets (sorted) of up to maxCycles
// shortest cycles through v within radius r, found via branch-labelled
// BFS: a non-tree edge between different BFS branches closes a cycle
// through v consisting of the two tree paths plus the edge. Ties in
// length keep the closers' scan order (BFS order of x, then x's adjacency
// order). The sets are views into the scratch, valid until the next
// search.
func (s *dccScratch) shortCyclesThrough(g *graph.G, v, r int) [][]int {
	s.scanClosers(g, v, r)
	cl := s.best[:s.nBest]
	need := 0
	for _, c := range cl {
		need += int(c.length)
	}
	// Grow once up front so the views below never see a reallocation.
	s.nodes = slices.Grow(s.nodes[:0], need)
	s.cycles = s.cycles[:0]
	for _, c := range cl {
		// The two tree paths lie in different branches, so they share
		// only v: together they hold exactly length distinct nodes.
		start := len(s.nodes)
		for u := c.x; u != -1; u = s.mark[u].parent {
			s.nodes = append(s.nodes, int(u))
		}
		for u := c.y; u != int32(v); u = s.mark[u].parent {
			s.nodes = append(s.nodes, int(u))
		}
		cyc := s.nodes[start:len(s.nodes):len(s.nodes)]
		slices.Sort(cyc)
		s.cycles = append(s.cycles, cyc)
	}
	return s.cycles
}

// scanClosers fills the scratch with a BFS tree from v (s.order and the
// marks) and the first maxCycles closers of that tree in sort order
// (s.best): shortest first, ties in scan order.
//
// The BFS runs level by level and stops after the first level D at which
// at least maxCycles closers lie within depth D, or at D = r, or when the
// ball is exhausted. Stopping early is exact: the maxCycles shortest
// closers, ties kept in scan order, are the same as after a full
// radius-r BFS.
//
//   - BFS depths differ by at most 1 across an edge, so a closer x–y has
//     |d(x)-d(y)| <= 1 and length d(x)+d(y)+1. Hence both endpoints lie
//     at depth <= D iff its length is <= 2D+1.
//   - So every closer of the full BFS not found by depth D is longer
//     than all maxCycles (or more) closers found, and sorts after them.
//   - Levels 0..D, their parents and branches are the same as in the
//     full BFS, and nodes at depth <= D are a prefix of its order, so the
//     closers found keep their scan positions (pos, port).
//
// Each level is scanned for closers before it is expanded, so a stop at D
// never builds level D+1. While level D is scanned the marked nodes are
// exactly those at depth <= D, and a marked neighbor's depth, D-1 or D,
// follows from its position relative to the level boundaries. Each closer
// is recorded once, from its deeper endpoint (from the smaller ID when
// both endpoints share a level).
//
//deltacolor:hotpath
func (s *dccScratch) scanClosers(g *graph.G, v, r int) {
	e := s.next()
	marks := s.mark
	marks[v] = mark{stamp: e, idx: 0, parent: -1, branch: -1}
	s.order = append(s.order[:0], int32(v))
	s.nBest = 0
	lo := 0
	for depth := int32(0); ; depth++ {
		hi := len(s.order)
		for i := lo; i < hi; i++ {
			w := int(s.order[i])
			mw := marks[w]
			for port, u := range g.Neighbors(w) {
				mu := &marks[u]
				if mu.stamp != e || mu.branch == mw.branch {
					continue // next level, or same branch: the cycle may avoid v
				}
				if mu.idx >= int32(lo) { // same level
					if w < u {
						s.keep(closer{int32(w), int32(u), 2*depth + 1, int32(i), int32(port)})
					}
					continue
				}
				if mw.parent == int32(u) {
					continue // tree edge
				}
				c := closer{int32(w), int32(u), 2 * depth, int32(i), int32(port)}
				if u < w {
					c = closer{int32(u), int32(w), 2 * depth, mu.idx, int32(portOf(g, u, w))}
				}
				s.keep(c)
			}
		}
		if s.nBest == maxCycles || int(depth) == r {
			return
		}
		for i := lo; i < hi; i++ {
			w := int(s.order[i])
			br := marks[w].branch
			for _, u := range g.Neighbors(w) {
				if marks[u].stamp != e {
					if w == v {
						br = int32(u)
					}
					marks[u] = mark{stamp: e, idx: int32(len(s.order)), parent: int32(w), branch: br}
					s.order = append(s.order, int32(u))
				}
			}
		}
		if len(s.order) == hi {
			return
		}
		lo = hi
	}
}

// keep inserts c into the sorted best buffer, dropping the last closer
// when the buffer is full.
//
//deltacolor:hotpath
func (s *dccScratch) keep(c closer) {
	n := s.nBest
	if n == maxCycles {
		if !c.before(s.best[n-1]) {
			return
		}
		n--
	}
	i := n
	for ; i > 0 && c.before(s.best[i-1]); i-- {
		s.best[i] = s.best[i-1]
	}
	s.best[i] = c
	s.nBest = n + 1
}

// portOf returns the index of w in u's adjacency list.
func portOf(g *graph.G, u, w int) int {
	for i, x := range g.Neighbors(u) {
		if x == w {
			return i
		}
	}
	return -1
}

// smallBall returns the radius-r ball around v in BFS order — the order
// graph.G.Ball gives — or nil once it holds more than limit nodes. The
// slice lives in the scratch.
func (s *dccScratch) smallBall(g *graph.G, v, r, limit int) []int {
	e := s.next()
	s.mark[v].stamp = e
	ball := append(s.ball[:0], v)
	for depth, lo := 0, 0; depth < r && lo < len(ball); depth++ {
		hi := len(ball)
		for i := lo; i < hi; i++ {
			for _, y := range g.Neighbors(ball[i]) {
				if s.mark[y].stamp == e {
					continue
				}
				if len(ball) == limit {
					s.ball = ball
					return nil
				}
				s.mark[y].stamp = e
				ball = append(ball, y)
			}
		}
		lo = hi
	}
	s.ball = ball
	return ball
}

// induce loads the subgraph induced by nodes (distinct) into the CSR
// arrays, indexed by position in nodes, for radiusAtMost and
// cycleSetIsDCC.
func (s *dccScratch) induce(g *graph.G, nodes []int) {
	e := s.next()
	for i, u := range nodes {
		s.mark[u] = mark{stamp: e, idx: int32(i)}
	}
	s.off = append(s.off[:0], 0)
	s.adj = s.adj[:0]
	for _, u := range nodes {
		for _, w := range g.Neighbors(u) {
			if m := s.mark[w]; m.stamp == e {
				s.adj = append(s.adj, m.idx)
			}
		}
		s.off = append(s.off, int32(len(s.adj)))
	}
	s.setDist = slices.Grow(s.setDist[:0], len(nodes))[:len(nodes)]
}

// bfsSet runs BFS over the induced set from src. It returns how many
// nodes it reached and the largest depth.
func (s *dccScratch) bfsSet(src int32) (reached int, ecc int32) {
	for i := range s.setDist {
		s.setDist[i] = -1
	}
	s.setDist[src] = 0
	s.queue = append(s.queue[:0], src)
	for head := 0; head < len(s.queue); head++ {
		x := s.queue[head]
		for _, y := range s.adj[s.off[x]:s.off[x+1]] {
			if s.setDist[y] < 0 {
				s.setDist[y] = s.setDist[x] + 1
				ecc = s.setDist[y]
				s.queue = append(s.queue, y)
			}
		}
	}
	return len(s.queue), ecc
}

// radiusAtMost reports whether the induced set is connected with radius
// at most r, i.e. whether SetRadius is in [0, r]. It stops at the first
// center it finds.
func (s *dccScratch) radiusAtMost(r int) bool {
	k := len(s.setDist)
	for src := range int32(k) {
		reached, ecc := s.bfsSet(src)
		if reached != k {
			return false
		}
		if int(ecc) <= r {
			return true
		}
	}
	return false
}

// cycleSetIsDCC is IsDCCSet on an induced set that spans a cycle, as
// every set cycleDCC tests does: a cycle, or a cycle plus an ear attached
// to two of its nodes. Such a set is 2-connected, so it is a DCC unless
// it is a clique or, having as many edges as nodes, an odd cycle.
func (s *dccScratch) cycleSetIsDCC() bool {
	k, twiceM := len(s.setDist), len(s.adj)
	return k >= 4 && twiceM != k*(k-1) && !(k%2 == 1 && twiceM == 2*k)
}

// blockDCC is the exact search used on small balls: the block containing v
// in the induced ball subgraph, greedily shrunk to radius r.
func blockDCC(g *graph.G, ball []int, v, r int) []int {
	sub, orig, err := g.InducedSubgraph(ball)
	if err != nil {
		return nil
	}
	const center = 0 // BFS order puts v first
	blocks, _ := sub.BiconnectedComponents()
	for _, b := range blocks {
		if !containsNode(b.Nodes, center) || BlockIsCliqueOrOddCycle(sub, b) {
			continue
		}
		if got := shrinkDCC(sub, b.Nodes, center, r); got != nil {
			out := make([]int, len(got))
			for i, u := range got {
				out[i] = orig[u]
			}
			return out
		}
	}
	return nil
}

// shrinkDCC greedily peels nodes farthest from the center while keeping
// the DCC property, aiming for radius <= r. Returns nil on failure.
func shrinkDCC(sub *graph.G, nodes []int, center, r int) []int {
	cur := append([]int(nil), nodes...)
	if !IsDCCSet(sub, cur) {
		return nil
	}
	for {
		if rad := SetRadius(sub, cur); rad >= 0 && rad <= r {
			return cur
		}
		dists := distWithin(sub, cur, center)
		best, bestDist := -1, -1
		for _, cand := range cur {
			if cand == center {
				continue
			}
			if d := dists[cand]; d > bestDist {
				if next := withoutNode(cur, cand); IsDCCSet(sub, next) {
					best, bestDist = cand, d
				}
			}
		}
		if best < 0 {
			return nil
		}
		cur = withoutNode(cur, best)
	}
}

// distWithin returns distances from center within the induced subgraph on
// nodes, keyed by original node ID (-1 when unreachable).
func distWithin(g *graph.G, nodes []int, center int) map[int]int {
	sub, orig, err := g.InducedSubgraph(nodes)
	out := map[int]int{}
	if err != nil {
		return out
	}
	ci := -1
	for i, u := range orig {
		if u == center {
			ci = i
		}
	}
	if ci < 0 {
		return out
	}
	res := sub.BFS(ci)
	for i, u := range orig {
		out[u] = res.Dist[i]
	}
	return out
}

func containsNode(nodes []int, v int) bool {
	for _, u := range nodes {
		if u == v {
			return true
		}
	}
	return false
}

func withoutNode(nodes []int, v int) []int {
	out := make([]int, 0, len(nodes)-1)
	for _, u := range nodes {
		if u != v {
			out = append(out, u)
		}
	}
	return out
}

// SelectDCCs runs phase (1) of the randomized algorithm: every node that is
// contained in a DCC of radius <= r selects one; the returned slice holds
// the distinct selected DCCs, and owner maps each selecting node to its
// DCC's index (-1 when none found).
//
// rounds reports the LOCAL cost charged: collecting the radius-2r ball
// costs 2r rounds (see local.GatherBall). All n searches share one
// scratch, so each costs time proportional to the part of the ball it
// explores, not to n.
func SelectDCCs(g *graph.G, r int) (dccs [][]int, owner []int, rounds int) {
	owner = make([]int, g.N())
	for v := range owner {
		owner[v] = -1
	}
	s := newDCCScratch(g.N())
	seen := map[string]int{}
	for v := 0; v < g.N(); v++ {
		d := s.findDCC(g, v, r)
		if d == nil {
			continue
		}
		key := dccKey(d)
		if idx, ok := seen[key]; ok {
			owner[v] = idx
			continue
		}
		seen[key] = len(dccs)
		owner[v] = len(dccs)
		dccs = append(dccs, d)
	}
	return dccs, owner, 2 * r
}

// dccKey is an order-independent key of a node set: its members in
// ascending order, 4 bytes each, so IDs below 2^32 never alias.
func dccKey(nodes []int) string {
	sorted := slices.Sorted(slices.Values(nodes))
	b := make([]byte, 0, len(sorted)*4)
	for _, x := range sorted {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return string(b)
}
