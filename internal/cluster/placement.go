package cluster

import (
	"fmt"
	"hash/fnv"
)

// hashPlace picks the shard for gateway coflow id by highest-random-weight
// (rendezvous) hashing of the id against each healthy backend's name (never
// empty): deterministic — the same id always maps to the same backend while
// that backend is healthy — and stable under membership change, since
// removing one backend only moves the coflows that lived on it. Rendezvous
// hashing is the ring-free form of consistent hashing: every (key, backend)
// pair gets a pseudo-random score and the key goes to the top scorer.
func hashPlace(id int, healthy []*Backend) *Backend {
	var best *Backend
	var bestScore uint64
	for _, b := range healthy {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", b.name, id)
		score := mix64(h.Sum64())
		if best == nil || score > bestScore || (score == bestScore && b.name < best.name) {
			best, bestScore = b, score
		}
	}
	return best
}

// mix64 is the splitmix64 finalizer. Raw FNV-1a scores of keys that differ
// only in a short prefix (the backend names) are strongly ordered, which
// would let one backend win almost every rendezvous; the finalizer diffuses
// every input bit across the output.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
