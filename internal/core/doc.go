// Package core implements the paper's contribution: approximation algorithms
// for coflow scheduling over general network topologies that minimize total
// weighted coflow completion time.
//
// All algorithms share the three-step framework of the paper:
//
//  1. Reformulation — coflow completion times are expressed through a dummy
//     flow per coflow that must finish last (depth-1 in-tree precedences);
//     only dummy flows carry the coflow weight.
//  2. Interval-indexed linear program — time is partitioned into geometric
//     intervals τ_ℓ = (1+ε)^(ℓ-1); LP variables describe what fraction of
//     each flow is delivered in each interval, subject to per-interval edge
//     capacity (and, for unrouted flows, flow conservation or candidate-path
//     selection). The LP optimum is a lower bound on the optimal schedule
//     (up to a 1+ε factor from rounding release times).
//  3. Rounding — each flow is assigned to a later interval based on its
//     α-point (the interval where a cumulative α fraction of it is done in
//     the LP), and bandwidth/paths are fixed so that edge capacities hold.
//     Unrouted circuit flows pick a single path by Raghavan–Thompson
//     randomized rounding of the LP's fractional routing.
//
// Schedulers come in two flavours:
//
//   - Provable mode (Schedule): produces a feasible schedule whose objective
//     is within a constant factor (circuit, given paths), within a constant
//     factor over a candidate path set (circuit, free paths, restricted LP),
//     or within O(log |E| / log log |E|) (circuit, free paths, exact
//     arc-flow LP) of the LP lower bound.
//   - Practical mode (ScheduleASAP, the paper's §4.2 tweak): uses the LP only
//     to pick paths and a priority order, then starts every flow as early as
//     possible in the flow-level simulator. This is the "LP-Based" scheme of
//     the paper's experiments.
//
// The framework is written once (framework.go): intervalLP owns the options,
// the interval grid and release indices, the per-coflow completion variables,
// the deliver_ and complete_ rows, the solve, α-points, the LP priority order,
// the weighted path choice (thickest or Raghavan–Thompson), the h_α + D
// placement with its overload stretch, the ASAP pipeline and the LP evidence
// every result carries. A formulation keeps only its routing block — the
// routing interface: the variables a flow gets, the routing and capacity rows,
// and the weighted routes a solution supports.
//
//   - routing_candidates.go: a flow routes over candidate paths and has one
//     delivery variable per candidate and interval (given paths are the
//     single-candidate case). Serves CircuitGivenPaths, CircuitFreePaths,
//     PacketGivenPaths and PacketFreePaths.
//   - routing_arcs.go: a bandwidth variable per flow, edge and interval with
//     flow conservation; routes come from flow decomposition. Serves
//     CircuitFreePathsExact.
//
// Every scheduler method is build → solve → one shared rounding
// (circuit.go, packet_coflow.go); a new coflow model or a builder optimisation
// is written once, behind one routing block. TestSchedulersPinned holds every
// mode to the numbers of the two-copy code it replaced, and
// TestExactLPRelaxesCandidateLP holds the two blocks against each other.
//
// The builders format and store no names: intervalLP is its problem's lp.Names
// and reads C_<c>, x_<flow>_p<p>_l<ℓ>, cap_e<e>_l<ℓ> and the rest off a
// variable's or row's position in the build order (names.go) when
// Problem.String, Problem.VariableName or a modelling panic asks.
// TestProblemStringGolden holds the text to that of the stored names it replaced.
//
// Every candidate-path builder, given or free paths, leaves out of the LP
// every capacity row (e, ℓ) that can never bind: a flow delivers Σx = 1, so
// the row carries at most the summed size of the flows with a candidate over
// e divided by |ℓ|, and the interval lengths grow geometrically — two thirds
// of a Figure-3 LP's capacity rows, and three quarters of a residual
// given-path LP's, are slack by construction. The simplex takes the same
// pivots without them (slackRowMargin in routing_candidates.go has the
// argument, presolve_test.go the tests that hold it to the solver against
// the LP with every row, which only tests build).
//
// Packet-based coflows are handled by reducing to unit-time job-shop
// scheduling (given paths) and to per-interval routing plus scheduling on the
// original graph (free paths); see packet_coflow.go.
package core
