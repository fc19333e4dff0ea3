package stride

import "testing"

func TestConstantStrideDetected(t *testing.T) {
	d := New(1)
	base := uint64(0x10000)
	var flags []bool
	for i := 0; i < 10; i++ {
		flags = append(flags, d.Observe(0, base+uint64(i)*64))
	}
	// First two establish the stride; from the third on it is confirmed.
	if flags[0] || flags[1] {
		t.Errorf("first two accesses must not be strided: %v", flags)
	}
	for i := 2; i < 10; i++ {
		if !flags[i] {
			t.Errorf("access %d should be strided: %v", i, flags)
		}
	}
}

func TestRandomNotStrided(t *testing.T) {
	d := New(1)
	addrs := []uint64{0x1000, 0x5040, 0x2080, 0x90c0, 0x3100, 0x7140}
	for i, a := range addrs {
		if d.Observe(0, a) {
			t.Errorf("access %d (%#x) flagged strided", i, a)
		}
	}
}

func TestZeroStrideNotCounted(t *testing.T) {
	d := New(1)
	for i := 0; i < 5; i++ {
		if d.Observe(0, 0x2000) {
			t.Error("repeated identical address must not count as strided")
		}
	}
}

func TestNegativeStride(t *testing.T) {
	d := New(1)
	// Stay inside one 1 MB tracking region: crossing a region boundary
	// resets the tracker (by design, as in hardware region-based tables).
	base := uint64(0x180000)
	var strided int
	for i := 0; i < 8; i++ {
		if d.Observe(0, base-uint64(i)*128) {
			strided++
		}
	}
	if strided != 6 {
		t.Errorf("negative stride: %d strided, want 6", strided)
	}
}

func TestInterleavedStreamsSeparatedByRegion(t *testing.T) {
	// Two interleaved strided streams in distant regions must both be
	// recognized (the per-region table separates them).
	d := New(1)
	a, b := uint64(0x0010_0000), uint64(0x4000_0000)
	var stridedA, stridedB int
	for i := 0; i < 10; i++ {
		if d.Observe(0, a+uint64(i)*64) && i >= 2 {
			stridedA++
		}
		if d.Observe(0, b+uint64(i)*256) && i >= 2 {
			stridedB++
		}
	}
	if stridedA != 8 || stridedB != 8 {
		t.Errorf("interleaved streams: a=%d b=%d, want 8 each", stridedA, stridedB)
	}
}

func TestPerCPUIndependence(t *testing.T) {
	d := New(2)
	base := uint64(0x8000)
	// CPU 0 sees a strided stream; CPU 1 sees every other element (stride
	// doubled) - both should be strided in their own views.
	var s0, s1 int
	for i := 0; i < 12; i++ {
		if d.Observe(0, base+uint64(i)*64) {
			s0++
		}
		if d.Observe(1, base+uint64(i)*128) {
			s1++
		}
	}
	if s0 != 10 || s1 != 10 {
		t.Errorf("per-cpu: s0=%d s1=%d, want 10 each", s0, s1)
	}
}
