package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringReplicas is the number of virtual ring points per backend.
const ringReplicas = 64

// hashRing is a consistent-hash ring over the current backend set. Each
// backend owns ringReplicas virtual points, so keys spread evenly and a
// membership change only remaps the keys adjacent to the changed
// backend's points. The ring is immutable once built — membership edits
// build a new one under the gateway's lock — while health and load are
// evaluated at pick time, so a circuit opening never requires a rebuild.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	b    *backend
}

// hashKey hashes a routing key or virtual-point name onto the ring.
// Raw FNV-64a clusters badly on near-identical short strings (session
// labels and "addr#i" point names differ in a byte or two), so the
// output is pushed through a splitmix64-style avalanche to spread
// neighbors across the whole ring.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func buildRing(backends []*backend) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(backends)*ringReplicas)}
	for _, b := range backends {
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(b.addr + "#" + strconv.Itoa(i)), b: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// walk visits the distinct backends in ring order starting at key's
// position, stopping early when visit returns false. Bounded load comes
// from the caller's visit predicate: the first admissible backend wins,
// and because every backend appears in the sequence, an admissible one is
// always found if it exists.
func (r *hashRing) walk(key string, visit func(*backend) bool) {
	if len(r.points) == 0 {
		return
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[*backend]bool)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.b] {
			continue
		}
		seen[p.b] = true
		if !visit(p.b) {
			return
		}
	}
}
