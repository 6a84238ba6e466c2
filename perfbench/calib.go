package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The machine this benchmark runs on is shared, and its speed drifts by
// tens of percent over seconds to minutes. Every timing the benchmark
// reports is therefore calibrated: small fixed chunks of reference work
// that uses no code of the analyzer run between analyses, and each timing
// is scaled by refNominal over the reference's mean time in the same pass
// (in the whole run, for the traced run). The unit stays the second, read as "on a machine where one
// reference chunk takes refNominal". The uncalibrated figures are kept in
// the provenance line.

// refNominal is the reference chunk's time on the machine the benchmark
// was defined on (2 vCPUs of an Intel Xeon at 2.1 GHz, at its typical
// speed). It is a unit, not a measurement: changing it rescales every
// timing.
const refNominal = 2500 * time.Microsecond

// refEvery is how much analysis time passes between reference chunks.
const refEvery = 50 * time.Millisecond

var refSink int

// refChunk runs a fixed mix of hashing, string, map, sort and pointer
// work, allocating like the analyzer does, and returns its wall time.
func refChunk() time.Duration {
	t0 := time.Now()
	type node struct {
		next *node
		key  string
		vals []int
	}
	var buf [4096]byte
	for i := range buf {
		buf[i] = byte(i)
	}
	n := 0
	for j := 0; j < 16; j++ {
		s := sha256.Sum256(buf[:])
		n += int(s[0])
	}
	const keys = 4000
	m := make(map[string]*node, keys/4)
	var head *node
	ks := make([]string, 0, keys)
	for i := 0; i < keys; i++ {
		k := "k" + strconv.Itoa((i*7919)%4001)
		nd := &node{next: head, key: k, vals: make([]int, i%7)}
		head = nd
		m[k] = nd
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		n += len(m[k].vals)
	}
	for nd := head; nd != nil; nd = nd.next {
		n += len(nd.key)
	}
	refSink = n
	return time.Since(t0)
}

// speedometer interleaves reference chunks with the measured work and
// turns the chunks' times into a calibration factor.
type speedometer struct {
	since  time.Duration // measured time since the last chunk
	ref    time.Duration // summed chunk time
	chunks int
	bytes  uint64 // heap bytes the chunks allocated
}

// tick records d of measured work and runs a reference chunk once refEvery
// of it has accumulated. The chunk's own time is kept out of d.
func (s *speedometer) tick(d time.Duration) {
	s.since += d
	if s.chunks > 0 && s.since < refEvery {
		return
	}
	s.since = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.ref += refChunk()
	runtime.ReadMemStats(&m1)
	s.bytes += m1.TotalAlloc - m0.TotalAlloc
	s.chunks++
}

// factor scales a measured time to reference-machine time.
func (s *speedometer) factor() float64 {
	if s.chunks == 0 {
		return 1
	}
	return float64(refNominal) * float64(s.chunks) / float64(s.ref)
}
