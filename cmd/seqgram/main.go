// Command seqgram runs the SEQUITUR hierarchical compression algorithm
// over a symbol sequence read from stdin (whitespace-separated integers,
// or arbitrary tokens with -tokens) and prints the inferred grammar plus
// temporal-stream statistics. This is the analysis engine of the paper,
// usable standalone.
//
// Before printing, seqgram checks the grammar's invariants and that it
// expands back to the input, and exits 1 if either check fails; input it
// cannot read as symbols exits 2.
//
// Usage:
//
//	echo 1 2 3 1 2 3 9 | seqgram
//	seqgram -tokens < words.txt
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

func main() {
	tokens := flag.Bool("tokens", false, "treat input as arbitrary tokens, not integers")
	grammar := flag.Bool("grammar", true, "print the inferred grammar")
	flag.Parse()

	if code, err := run(os.Stdin, os.Stdout, *tokens, *grammar); err != nil {
		fmt.Fprintln(os.Stderr, "seqgram:", err)
		os.Exit(code)
	}
}

// run reads the symbols from in, builds their grammar, checks it and
// writes the grammar (when printGrammar is set) and the stream
// statistics to out. On failure it returns the exit status with the
// error: 2 for input that is not a symbol sequence, 1 for a read error
// or a grammar that fails its checks.
func run(in io.Reader, out io.Writer, tokens, printGrammar bool) (int, error) {
	var syms []uint64
	intern := map[string]uint64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		tok := sc.Text()
		if tokens {
			id, ok := intern[tok]
			if !ok {
				id = uint64(len(intern))
				intern[tok] = id
			}
			syms = append(syms, id)
			continue
		}
		v, err := strconv.ParseUint(tok, 0, 64)
		if err != nil {
			return 2, fmt.Errorf("%q is not an integer (use -tokens?)", tok)
		}
		syms = append(syms, v)
	}
	if err := sc.Err(); err != nil {
		return 1, err
	}
	if len(syms) == 0 {
		return 2, errors.New("empty input")
	}

	g := sequitur.Parse(syms)
	if err := check(g, syms); err != nil {
		return 1, err
	}
	if printGrammar {
		fmt.Fprint(out, g)
	}

	// Stream statistics via the core analysis (single synthetic CPU).
	tr := &trace.Trace{CPUs: 1}
	for _, s := range syms {
		tr.Append(trace.Miss{Addr: s << 6})
	}
	a := core.Analyze(tr, core.Options{MaxMisses: len(syms)})
	nr, ns, rc := a.Fractions()
	fmt.Fprintf(out, "symbols: %d, rules: %d\n", len(syms), g.RuleCount())
	fmt.Fprintf(out, "non-repetitive %.1f%%, new streams %.1f%%, recurring %.1f%%\n",
		100*nr, 100*ns, 100*rc)
	if a.LengthDist.Len() > 0 {
		fmt.Fprintf(out, "median stream length: %.0f\n", a.MedianStreamLength())
	}
	return 0, nil
}

// check verifies g's structure and index (CheckInvariants) and that g
// expands to syms, which CheckInvariants does not check.
func check(g *sequitur.Grammar, syms []uint64) error {
	if err := g.CheckInvariants(); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}
	if exp := g.Expansion(); !slices.Equal(exp, syms) {
		return fmt.Errorf("grammar does not expand to its input (%d symbols expanded, %d read)", len(exp), len(syms))
	}
	return nil
}
