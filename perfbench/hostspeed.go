package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. On the shared reference host the same sweep took from 1.1 s
// to 2.3 s, in slow and fast spells that last from a few sweeps to
// minutes, and process CPU time stretched with wall time, so no raw time
// repeats from one set of runs to the next. The benchmark therefore times
// a fixed kernel of its own between its timed stretches of work — after
// each set-up, and after every second of sweeps or query passes — and
// reports every time metric in reference-host units: each stretch's time
// divided by the host factor around it (see around). The kernel belongs
// to the benchmark, not to the program, so a change to the program moves
// a metric exactly as much as it moves the raw time. The raw figures and
// the samples are printed beside the metrics.

// kernelNominalMs is the kernel's usual thread CPU time on the reference
// host (2 vCPUs). It only fixes the unit of the reported times: a run
// whose kernel takes this long reports its raw times.
const kernelNominalMs = 120.0

// The kernel is a small cache simulator of the benchmark's own: sixteen
// 1 MB, 16-way LRU caches of 64-byte blocks fed by a xorshift address
// stream, with a hash map counting misses per block. It has the shape of
// the program's hot loops — set-associative tag lookups in the simulator,
// hash-map updates in the analyses — so a spell that slows those slows it
// alike, and it is frozen here, so a change to the program leaves it as it
// is. A sample runs one instance on each vCPU of the reference host at
// once, as the sweep's machine tasks do, so it meets the contention the
// ops meet.
const (
	kernelCaches    = 16
	kernelSets      = 1024
	kernelWays      = 16
	kernelRefs      = 1_200_000
	kernelInstances = 2
)

// kernelState is one instance's tables. They live outside the Go heap
// (anonymous mappings), so they neither count in heap_peak_mb nor give
// the collector work, and the kernel allocates nothing.
type kernelState struct {
	tags []uint64
	ages []uint32
	// keys and counts are an open-addressing hash table counting misses
	// per block (key = block+1, 0 = empty).
	keys   []uint64
	counts []uint32
	clock  uint32
	rand   uint64
	// sink keeps the results live so the loops are not removed.
	sink uint64
}

// kernelHashBits sizes the miss table: twice the 2^17 blocks it can hold.
const kernelHashBits = 18

func newKernelState(i int) (*kernelState, error) {
	n := kernelCaches * kernelSets * kernelWays
	tags, err := offHeap[uint64](n)
	if err != nil {
		return nil, err
	}
	ages, err := offHeap[uint32](n)
	if err != nil {
		return nil, err
	}
	keys, err := offHeap[uint64](1 << kernelHashBits)
	if err != nil {
		return nil, err
	}
	counts, err := offHeap[uint32](1 << kernelHashBits)
	if err != nil {
		return nil, err
	}
	return &kernelState{tags: tags, ages: ages, keys: keys, counts: counts, rand: uint64(88172645463325252) + uint64(i)}, nil
}

// offHeap returns n zeroed Ts in an anonymous private mapping.
func offHeap[T uint32 | uint64](n int) ([]T, error) {
	size := n * int(unsafe.Sizeof(T(0)))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host-speed kernel's tables: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// warm reads all of the instance's tables, so every sample starts from
// the same cache state, whatever the program left in the caches.
func (k *kernelState) warm() {
	var acc uint64
	for i := range k.tags {
		acc += k.tags[i] + uint64(k.ages[i])
	}
	for i := range k.keys {
		acc += k.keys[i] + uint64(k.counts[i])
	}
	k.sink += acc
}

// countMiss adds one to blk's miss count.
func (k *kernelState) countMiss(blk uint64) {
	mask := uint64(1)<<kernelHashBits - 1
	for i := (blk * 0x9E3779B97F4A7C15) >> (64 - kernelHashBits); ; i = (i + 1) & mask {
		switch k.keys[i] {
		case blk + 1:
			k.counts[i]++
			return
		case 0:
			k.keys[i] = blk + 1
			k.counts[i] = 1
			return
		}
	}
}

// run makes kernelRefs references: three in four spread over 8 MB of
// blocks, one in four within a hot 256 KB.
func (k *kernelState) run() {
	x := k.rand
	var hits uint64
	for i := 0; i < kernelRefs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		blk := (x >> 8) & (1<<17 - 1)
		if x&3 == 0 {
			blk = (x >> 20) & (1<<12 - 1)
		}
		base := ((x&(kernelCaches-1))*kernelSets + blk&(kernelSets-1)) * kernelWays
		k.clock++
		victim, oldest, hit := base, ^uint32(0), false
		for w := base; w < base+kernelWays; w++ {
			if k.tags[w] == blk+1 {
				k.ages[w] = k.clock
				hit = true
				break
			}
			if k.ages[w] < oldest {
				victim, oldest = w, k.ages[w]
			}
		}
		if hit {
			hits++
			continue
		}
		k.tags[victim] = blk + 1
		k.ages[victim] = k.clock
		k.countMiss(blk)
	}
	k.rand = x
	k.sink += hits
}

// hostSpeed collects a run's kernel timings.
type hostSpeed struct {
	kernels []*kernelState
	// pending is the timed work since the last sample.
	pending time.Duration
	// ms holds one value per sample: the instances' mean thread CPU time.
	ms []float64
}

// newHostSpeed runs each instance once, untimed, so no sample pays for
// page faults.
func newHostSpeed() (*hostSpeed, error) {
	h := &hostSpeed{}
	for i := 0; i < kernelInstances; i++ {
		k, err := newKernelState(i)
		if err != nil {
			return nil, err
		}
		k.run()
		h.kernels = append(h.kernels, k)
	}
	return h, nil
}

// sample collects garbage, so no collection runs beside the kernel, then
// runs the instances at once, each timed in the CPU time of its own
// locked OS thread. Thread CPU time leaves out time a thread waits for a
// CPU, so other goroutines of the process cannot stretch a sample and
// hide a slowdown of the program's own.
func (h *hostSpeed) sample() {
	h.pending = 0
	runtime.GC()
	ms := make([]float64, len(h.kernels))
	var wg sync.WaitGroup
	for i, k := range h.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			k.warm()
			start := threadCPU()
			k.run()
			ms[i] = float64((threadCPU() - start).Nanoseconds()) / 1e6
		}()
	}
	wg.Wait()
	var sum float64
	for _, v := range ms {
		sum += v
	}
	h.ms = append(h.ms, sum/float64(len(ms)))
}

// sampleEvery is the timed work between samples: a sample follows a
// stretch of work once this much has built up since the last one. It
// keeps the kernel to 5-10% of a run whether its stretches
// are 2-second sweeps or 0.3-second query passes.
const sampleEvery = time.Second

// after counts a stretch of timed work and samples once sampleEvery has
// built up.
func (h *hostSpeed) after(work time.Duration) {
	h.pending += work
	if h.pending >= sampleEvery {
		h.sample()
	}
}

// flush takes a sample if timed work is still waiting for one, so every
// stretch has a sample after it.
func (h *hostSpeed) flush() {
	if h.pending > 0 {
		h.sample()
	}
}

// next is the index the next sample will take: a stretch of work records
// it before the sample that follows the stretch.
func (h *hostSpeed) next() int { return len(h.ms) }

// around is the host factor around a stretch of work followed by sample
// k: the median of the sample before the stretch, the one after it and
// the one after that, over the kernel's nominal time. Three samples
// follow the host through a spell of a few sweeps while damping the
// noise of any one sample.
func (h *hostSpeed) around(k int) float64 {
	lo := min(max(0, k-1), len(h.ms)-1)
	return quantile(h.ms[lo:min(len(h.ms), k+2)], 0.5) / kernelNominalMs
}

// factor is the run's median host factor, printed with the runner (1 when
// no sample was taken).
func (h *hostSpeed) factor() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	return quantile(h.ms, 0.5) / kernelNominalMs
}

func (h *hostSpeed) note() string {
	return fmt.Sprintf("host: kernel median %.2f ms, median host factor %.4f; samples ms %.1f",
		quantile(h.ms, 0.5), h.factor(), h.ms)
}

// threadCPU returns the calling OS thread's user+sys CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
