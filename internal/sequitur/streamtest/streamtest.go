// Package streamtest is a brute-force oracle for temporal-stream
// membership, for the tests of the SEQUITUR grammar and the stream
// analysis built on it. It reads only the input sequence, never a
// grammar, so it checks stream membership against the input itself
// rather than against another reading of the same grammar.
package streamtest

import "fmt"

// Per-position stream classes, numbered as core.StreamState numbers
// them: outside every stream, inside first occurrences of streams only,
// inside some later occurrence.
const (
	NonRepetitive = 0
	NewStream     = 1
	Recurring     = 2
)

// Check tests the per-position stream classes of input against two
// properties that follow from what a temporal stream is — an occurrence,
// at least two symbols long, of a sequence that occurs at least twice:
//
//  1. every position classed NewStream or Recurring lies in an input
//     digram (positions j, j+1 with j = i−1 or i) whose value starts at
//     two or more positions;
//  2. every Recurring position lies in such a digram whose value also
//     starts at an earlier position than j.
//
// It returns an error naming the first position that breaks either, or a
// class outside the three.
func Check[S ~uint8 | ~int](input []uint64, classes []S) error {
	if len(classes) != len(input) {
		return fmt.Errorf("%d classes for %d positions", len(classes), len(input))
	}
	type digram [2]uint64
	count := make(map[digram]int)
	first := make(map[digram]int)
	for j := 0; j+1 < len(input); j++ {
		d := digram{input[j], input[j+1]}
		if count[d] == 0 {
			first[d] = j
		}
		count[d]++
	}
	for i, c := range classes {
		if c == NonRepetitive {
			continue
		}
		repeated, again := false, false
		for j := max(i-1, 0); j <= i && j+1 < len(input); j++ {
			d := digram{input[j], input[j+1]}
			repeated = repeated || count[d] >= 2
			again = again || first[d] < j
		}
		switch {
		case c != NewStream && c != Recurring:
			return fmt.Errorf("position %d has class %d", i, c)
		case !repeated:
			return fmt.Errorf("position %d (class %d) lies in no repeated digram of the input", i, c)
		case c == Recurring && !again:
			return fmt.Errorf("position %d is recurring, but neither digram through it occurs earlier", i)
		}
	}
	return nil
}

// JunctionOverlapInput is an adversarial input for the grammar, read
// modulo 4: found by testing/quick, it walks the rule-inlining path
// where the junction digram is the second, overlapping copy of a run of
// equal symbols (see the sequitur package's regression test).
var JunctionOverlapInput = []byte{
	0x9d, 0x6c, 0xe3, 0x43, 0x8a, 0x79, 0x03, 0x36, 0x5e, 0x67, 0x0f,
	0xd5, 0x9b, 0xe5, 0x7d, 0xfd, 0xf9, 0x4a, 0xcc, 0x22, 0x39, 0x0f,
	0xff, 0xa2, 0x98, 0x5c, 0x7f, 0x2c, 0x15, 0x71, 0x51, 0xfa, 0x75,
	0x66, 0x5a, 0x4a, 0x88, 0xe9, 0xe1, 0xb9, 0x83, 0x80, 0x8f,
}

// Mod4 maps raw bytes onto a four-symbol alphabet, as the fuzz targets
// and JunctionOverlapInput read them.
func Mod4(raw []byte) []uint64 {
	in := make([]uint64, len(raw))
	for i, b := range raw {
		in[i] = uint64(b % 4)
	}
	return in
}
