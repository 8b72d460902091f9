package main

// sizes fixes every workload's input size. The full sizes are what the
// numbers in README.md and the bounds in BENCHMARK.json mean: each makes one
// pass a second or two on two cores, so that a run of run_seconds fits
// several. Smoke is a few coflows, for go test.
type sizes struct {
	// offline-fig3: instances of coflows × width on the k=4 fat-tree.
	offInstances, offCoflows, offWidth int
	// online-*: coflows × width arriving at rate per simulated time unit.
	k4Coflows, k8Coflows, onlineWidth int
	k4Rate, k8Rate, k8Epoch           float64
	lpCoflows, lpWidth                int
	lpRate                            float64
	// admit-*: width-3 coflows admitted per iteration; the shards' fabric
	// runs epochLength simulated units every epochLength/timeScale seconds.
	shardAdmits, clusterAdmits int
	epochLength, timeScale     float64
	// probes: sampled host pairs, serial append+commit pairs.
	kspPairs, walAppends int
}

var scales = map[string]sizes{
	"full": {
		offInstances: 64, offCoflows: 4, offWidth: 4,
		k4Coflows: 625, k8Coflows: 300, onlineWidth: 8, k4Rate: 10, k8Rate: 0.5, k8Epoch: 2,
		lpCoflows: 240, lpWidth: 3, lpRate: 0.2,
		shardAdmits: 6000, clusterAdmits: 300, epochLength: 320, timeScale: 128000,
		kspPairs: 256, walAppends: 400,
	},
	"smoke": {
		offInstances: 2, offCoflows: 3, offWidth: 3,
		k4Coflows: 24, k8Coflows: 6, onlineWidth: 4, k4Rate: 10, k8Rate: 0.5, k8Epoch: 2,
		lpCoflows: 6, lpWidth: 3, lpRate: 0.2,
		shardAdmits: 60, clusterAdmits: 24, epochLength: 320, timeScale: 128000,
		kspPairs: 8, walAppends: 16,
	},
}

// subSeed derives the seed of the i-th independent input of a run.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }
