package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sequitur"
)

// TestCollidingFingerprints pins the probe with colliding digram
// fingerprints: the terminal digrams (0, 5) and (11618, 11374) share one
// fingerprint, and with 0..11618 read first the terminals' ids equal
// their values, so both digrams have the same home slot. Each repeated
// digram must become its own rule; a lookup that trusted the fingerprint
// alone merged them into the one rule R1 -> 11618 11374.
func TestCollidingFingerprints(t *testing.T) {
	var in strings.Builder
	for v := 0; v <= 11618; v++ {
		fmt.Fprintln(&in, v)
	}
	in.WriteString("0 5 20001 11618 11374 20002 0 5 20003 11618 11374\n")
	var out bytes.Buffer
	if code, err := run(strings.NewReader(in.String()), &out, false, true); err != nil {
		t.Fatalf("run: exit %d: %v", code, err)
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(out.String(), "\n") {
		lines[l] = true
	}
	for _, want := range []string{"R1 -> 0 5", "R2 -> 11618 11374", "symbols: 11630, rules: 2"} {
		if !lines[want] {
			t.Errorf("output lacks the line %q:\n%s", want, tail(out.String()))
		}
	}
}

// tail returns the last lines of a long output.
func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-6):], "\n")
}

// TestBadInputExitsTwo: input that is no symbol sequence exits 2 and
// prints nothing.
func TestBadInputExitsTwo(t *testing.T) {
	for _, c := range []struct{ name, in, msg string }{
		{"empty", "", "empty input"},
		{"blank", " \n\t\n", "empty input"},
		{"non-integer", "1 2 x 3", `"x" is not an integer (use -tokens?)`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			code, err := run(strings.NewReader(c.in), &out, false, true)
			if err == nil || err.Error() != c.msg {
				t.Fatalf("run(%q) = %v, want %q", c.in, err, c.msg)
			}
			if code != 2 {
				t.Errorf("exit code %d, want 2", code)
			}
			if out.Len() != 0 {
				t.Errorf("printed %q before failing", out.String())
			}
		})
	}
}

// TestTokens: with -tokens, tokens are numbered in order of first
// appearance, so a repeated phrase becomes one rule.
func TestTokens(t *testing.T) {
	var out bytes.Buffer
	if code, err := run(strings.NewReader("to be or not to be"), &out, true, true); err != nil {
		t.Fatalf("run: exit %d: %v", code, err)
	}
	if !strings.Contains(out.String(), "R1 -> 0 1\n") || !strings.Contains(out.String(), "symbols: 6, rules: 1\n") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

// TestCheckRejectsWrongExpansion: a grammar whose structure is sound but
// whose expansion is not the input fails the check (run exits 1 for it).
func TestCheckRejectsWrongExpansion(t *testing.T) {
	syms := []uint64{1, 2, 3, 1, 2, 3}
	if err := check(sequitur.Parse(syms), syms); err != nil {
		t.Fatalf("check of a sound grammar: %v", err)
	}
	if err := check(sequitur.Parse(syms), []uint64{1, 2, 3, 1, 2, 4}); err == nil {
		t.Error("check accepted a grammar that does not expand to the input")
	}
}
