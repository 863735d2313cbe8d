// Package dist provides the message-passing building blocks the Δ-coloring
// algorithms are composed from, implemented as genuine per-node protocols on
// the local runtime (local.Network / local.Ctx):
//
//   - Linial: the O(log* n) color reduction of [Linial 1992] — every node
//     starts from its ID and repeatedly maps its color through a family of
//     low-degree polynomials over a prime field, shrinking the palette from
//     n to O(Δ²) in a deterministic, globally known number of rounds.
//   - ReduceColors: Barenboim–Elkin-style one-class-per-round reduction
//     from a k-coloring down to a target palette (Δ+1 in every caller),
//     the second half of the classic O(log* n + k) (Δ+1)-coloring.
//   - LubyMIS: Luby's randomized maximal independent set, restricted to an
//     active node subset; used for ruling sets over virtual (quotient)
//     graphs in the shattering and DCC phases.
//   - ListInstance / ListColorRandomized / ListColorDeterministic:
//     (deg+1)-list-coloring of a layer against an already colored partial
//     assignment — the subroutine the layering technique of Section 3
//     invokes once per layer, in random-trial and Linial-class-scheduled
//     deterministic variants (substitutes for the paper's Theorems 18/19,
//     which trade its round bounds for simple per-node protocols).
//   - Decompose / VerifyDecomposition: a Miller–Peng–Xu-style low-diameter
//     decomposition with exponential random shifts, standing in for the
//     deterministic network decomposition of [PS92] in the Theorem 21
//     variant.
//   - VerifyColoring: the centralized full-coloring checker every
//     algorithm runs before returning.
//
// How the primitives compose into the paper's algorithms:
//
//   - Algorithm 1 (randomized, Theorems 1/3): LubyMIS selects the base
//     layer among degree-choosable components, the T-node shattering
//     phase marks color-one pairs, and the resulting happy/leftover layers
//     are colored in reverse with ListColorRandomized instances.
//   - Algorithm 3 (deterministic, Theorem 4): Linial supplies the schedule
//     classes, the AGLP ruling set builds B0, and each peeled layer is one
//     ListColorDeterministic instance.
//   - Algorithm 4 (Theorem 21 variant): Decompose replaces the AGLP
//     recursion; the ruling set is drawn from cluster centers class by
//     class, then the same layered list colorings run.
//
// The network-run primitives (Linial, ReduceColors, LubyMIS, the list
// colorings) return the actual synchronous round count of the underlying
// run, so the experiment harness (and the CONGEST profile E11, which
// measures the byte size of every message they send) reports measured
// costs. Decompose is the one centralized construction: it computes the
// clustering directly and reports the simulated round cost of the shifted
// BFS it stands for.
package dist
