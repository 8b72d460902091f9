package online

import "coflowsched/internal/stats"

// MergeEngineStats folds the statistics of several independent engines (the
// shards of a cluster, each owning its own fabric) into one aggregate view,
// the quantity internal/cluster's gateway serves from /v1/stats.
//
// Counters and objectives are sums: coflows live on exactly one shard, so
// admitted/completed counts and the weighted CCT/response objectives add.
// Now is the furthest shard clock — shards start at different wall times, so
// their clocks are not directly comparable and the max is only an upper
// envelope. The percentile reservoirs merge via stats.MergeSamples, keeping
// the result bounded to the same window a single engine reports so gateway
// stats cost the same as shard stats regardless of shard count.
func MergeEngineStats(shards ...EngineStats) EngineStats {
	var out EngineStats
	slowdowns := make([][]float64, 0, len(shards))
	solves := make([][]float64, 0, len(shards))
	for _, s := range shards {
		if s.Now > out.Now {
			out.Now = s.Now
		}
		out.Epochs += s.Epochs
		out.Decisions += s.Decisions
		out.Fallbacks += s.Fallbacks
		out.Admitted += s.Admitted
		out.Completed += s.Completed
		out.Active += s.Active
		out.ActiveFlows += s.ActiveFlows
		out.WeightedCCT += s.WeightedCCT
		out.WeightedResponse += s.WeightedResponse
		slowdowns = append(slowdowns, s.Slowdowns)
		solves = append(solves, s.SolveLatencies)
	}
	out.Slowdowns = stats.MergeSamples(statsWindow, slowdowns...)
	out.SolveLatencies = stats.MergeSamples(statsWindow, solves...)
	return out
}
