// Command tsquery is the temporal query layer over a managed archive
// store (internal/store): it lists and inspects wire-format miss-stream
// archives by their manifest metadata, analyzes selections through the
// same tempstream.Session machinery that answers live ingest — so a
// query over stored streams is byte-identical to having analyzed them
// in process — and applies retention.
//
// Usage:
//
//	tsquery list    -dir DIR [-app LIST] [-machine LIST] [-scale LIST] [-seed N] [-label L] [-json]
//	tsquery show    -dir DIR -id ID [-head N] [-json]
//	tsquery analyze -dir DIR [selection flags] [-from N] [-to N]
//	                [-cpu N] [-class C] [-category C] [-window N] [-json]
//	tsquery prune   -dir DIR [-max-bytes N] [-max-age DUR] [-orphans] [-json]
//
// Selection flags take the CLI spellings the manifest stores: apps as
// "oltp, apache, ...", machines as "multi-chip"/"single-chip", scales
// as "small"/"medium"/"large". -class is one of compulsory, coherence,
// io-coherence, replacement; -category is a Table-2 slug (run
// `tsquery show` on an archive to see which categories its symbol
// table uses).
//
// Corrupt or truncated archives are never fatal to a query: they are
// skipped with a warning on stderr (exit status 3 if every selected
// archive was skipped), exactly the typed-error contract of
// internal/store.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	tempstream "repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:], os.Stdout)
	case "show":
		err = cmdShow(os.Args[2:], os.Stdout)
	case "analyze":
		err = cmdAnalyze(os.Args[2:], os.Stdout)
	case "prune":
		err = cmdPrune(os.Args[2:], os.Stdout)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tsquery: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsquery: %v\n", err)
		if errors.Is(err, errAllSkipped) {
			os.Exit(3)
		}
		os.Exit(2)
	}
}

// errAllSkipped distinguishes "the query matched archives but every one
// was corrupt" (exit 3) from usage/IO errors (exit 2).
var errAllSkipped = errors.New("every selected archive was skipped")

func usage() {
	fmt.Fprint(os.Stderr, `usage: tsquery <command> -dir DIR [flags]

commands:
  list      list archives in the store's manifest
  show      inspect one archive: manifest entry, totals, symbol table
  analyze   run selected archives through the temporal-stream analysis
  prune     apply retention (oldest-first compaction) and reclaim orphans
`)
}

// storeFlags is the flag surface shared by every subcommand.
func storeFlags(fs *flag.FlagSet) *string {
	return fs.String("dir", "", "archive store directory (required)")
}

// selectionFlags declares the manifest-predicate flags and returns a
// builder that validates them into a store.Query.
func selectionFlags(fs *flag.FlagSet) func() (store.Query, error) {
	apps := fs.String("app", "", "restrict to these apps (comma-separated: "+cli.AppNames()+")")
	machines := fs.String("machine", "", "restrict to these machines (multi, single, or both)")
	scales := fs.String("scale", "", "restrict to these scales (comma-separated: small, medium, large)")
	seed := fs.Int64("seed", -1, "restrict to this seed (-1 = any)")
	label := fs.String("label", "", "restrict to this exact label")
	id := fs.String("id", "", "restrict to this exact archive ID")
	return func() (store.Query, error) {
		var q store.Query
		if *apps != "" {
			list, err := cli.Apps(*apps)
			if err != nil {
				return q, err
			}
			for _, a := range list {
				q.Apps = append(q.Apps, strings.ToLower(a.String()))
			}
		}
		if *machines != "" {
			list, err := cli.Machines(*machines)
			if err != nil {
				return q, err
			}
			for _, m := range list {
				q.Machines = append(q.Machines, m.String())
			}
		}
		if *scales != "" {
			for _, part := range strings.Split(*scales, ",") {
				sc, err := cli.Scale(strings.TrimSpace(part))
				if err != nil {
					return q, err
				}
				q.Scales = append(q.Scales, sc.String())
			}
		}
		if *seed >= 0 {
			q.Seed = seed
		}
		q.Label = *label
		q.ID = *id
		return q, nil
	}
}

// openStore opens the store and surfaces damaged entries as warnings.
func openStore(dir string) (*store.Store, error) {
	if dir == "" {
		return nil, errors.New("-dir is required")
	}
	s, damaged, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	for _, d := range damaged {
		fmt.Fprintf(os.Stderr, "tsquery: warning: %v (entry excluded)\n", d)
	}
	return s, nil
}

func cmdList(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tsquery list", flag.ExitOnError)
	dir := storeFlags(fs)
	buildQuery := selectionFlags(fs)
	jsonOut := fs.Bool("json", false, "machine-readable output")
	fs.Parse(args)
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	q, err := buildQuery()
	if err != nil {
		return err
	}
	entries := s.Select(q)
	if *jsonOut {
		return json.NewEncoder(w).Encode(entries)
	}
	rep, err := s.Check()
	if err == nil {
		for _, o := range rep.Orphans {
			fmt.Fprintf(os.Stderr, "tsquery: warning: orphan archive %s (not in manifest; prune -orphans reclaims it)\n", o)
		}
		for _, tmp := range rep.Temps {
			fmt.Fprintf(os.Stderr, "tsquery: warning: leftover temp %s (crashed writer; prune -orphans reclaims it)\n", tmp)
		}
	}
	fmt.Fprintf(w, "%-40s %-8s %-12s %-7s %6s %5s %10s %12s  %s\n",
		"ID", "APP", "MACHINE", "SCALE", "SEED", "CPUS", "RECORDS", "BYTES", "START")
	var bytes, records int64
	for _, e := range entries {
		fmt.Fprintf(w, "%-40s %-8s %-12s %-7s %6d %5d %10d %12d  %s\n",
			e.ID, orDash(e.App), orDash(e.Machine), orDash(e.Scale), e.Seed, e.CPUs,
			e.Records, e.Bytes, e.Start.Format(time.RFC3339))
		bytes += e.Bytes
		records += e.Records
	}
	fmt.Fprintf(w, "# %d archives, %d records, %d bytes\n", len(entries), records, bytes)
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func cmdShow(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tsquery show", flag.ExitOnError)
	dir := storeFlags(fs)
	id := fs.String("id", "", "archive ID to show (required; see tsquery list)")
	head := fs.Int("head", 10, "records to preview (0 = none)")
	jsonOut := fs.Bool("json", false, "machine-readable output")
	fs.Parse(args)
	if *id == "" && fs.NArg() == 1 {
		*id = fs.Arg(0) // allow `tsquery show -dir D ID`
	}
	if *id == "" {
		return errors.New("show: -id is required")
	}
	if err := cli.NonNegative("-head", *head); err != nil {
		return err
	}
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	e, ok := s.Entry(*id)
	if !ok {
		return fmt.Errorf("show: no archive %q in %s", *id, s.Dir())
	}

	// One decode pass through the store captures the preview; the
	// trailer it returns carries the symbol table that attributes it.
	preview := headSink{limit: *head}
	tr, err := s.Stream(e, &preview, store.Query{})
	if err != nil {
		return fmt.Errorf("show: %w", err)
	}
	st := tr.SymbolTable()

	if *jsonOut {
		type funcLine struct {
			ID       int    `json:"id"`
			Name     string `json:"name"`
			Category string `json:"category"`
		}
		out := struct {
			Entry  store.Entry  `json:"entry"`
			Header trace.Header `json:"header"`
			Funcs  []funcLine   `json:"funcs"`
		}{Entry: e, Header: tr.Header}
		for _, fn := range st.Funcs() {
			out.Funcs = append(out.Funcs, funcLine{ID: int(fn.ID), Name: fn.Name, Category: fn.Category.String()})
		}
		return json.NewEncoder(w).Encode(out)
	}

	fmt.Fprintf(w, "archive   %s\n", e.ID)
	fmt.Fprintf(w, "workload  app=%s machine=%s scale=%s seed=%d label=%s\n",
		orDash(e.App), orDash(e.Machine), orDash(e.Scale), e.Seed, orDash(e.Label))
	fmt.Fprintf(w, "stream    cpus=%d records=%d instructions=%d mpki=%.3f\n",
		e.CPUs, e.Records, tr.Header.Instructions, tr.Header.MPKI())
	fmt.Fprintf(w, "storage   bytes=%d digest=%s recorded=[%s, %s]\n",
		e.Bytes, e.Digest, e.Start.Format(time.RFC3339), e.End.Format(time.RFC3339))
	fmt.Fprintf(w, "symbols   %d functions\n", st.Len())
	cats := map[string]int{}
	for _, fn := range st.Funcs() {
		cats[fn.Category.String()]++
	}
	names := make([]string, 0, len(cats))
	for name := range cats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "          %3d  %s\n", cats[name], name)
	}
	if *head > 0 {
		fmt.Fprintf(w, "# %-8s %-4s %-14s %-14s %-24s %s\n", "pos", "cpu", "block", "class", "function", "category")
		for i, m := range preview.ms {
			fn := st.Func(m.Func)
			fmt.Fprintf(w, "%-10d %-4d %#-14x %-14s %-24s %s\n", i, m.CPU, m.Addr, m.Class, fn.Name, fn.Category)
		}
	}
	return nil
}

// headSink keeps the first limit records and drops the rest.
type headSink struct {
	limit int
	ms    []trace.Miss
}

func (h *headSink) AppendBatch(ms []trace.Miss) {
	h.ms = append(h.ms, ms[:min(len(ms), h.limit-len(h.ms))]...)
}
func (h *headSink) Finish(trace.Header) {}

// classNames maps CLI spellings to miss classes.
var classNames = map[string]trace.MissClass{
	"compulsory":   trace.Compulsory,
	"coherence":    trace.Coherence,
	"io-coherence": trace.IOCoherence,
	"replacement":  trace.Replacement,
}

// categorySlugs maps CLI spellings to Table-2 categories.
var categorySlugs = map[string]trace.Category{
	"unknown":        trace.CatUnknown,
	"bulk-copy":      trace.CatBulkCopy,
	"syscall":        trace.CatSyscall,
	"scheduler":      trace.CatScheduler,
	"mmu-trap":       trace.CatMMUTrap,
	"sync":           trace.CatSync,
	"kernel-other":   trace.CatKernelOther,
	"streams":        trace.CatSTREAMS,
	"ip-packet":      trace.CatIPPacket,
	"web-worker":     trace.CatWebWorker,
	"perl-input":     trace.CatPerlInput,
	"perl-engine":    trace.CatPerlEngine,
	"perl-other":     trace.CatPerlOther,
	"block-dev":      trace.CatBlockDev,
	"db-access":      trace.CatDBAccess,
	"db-req-control": trace.CatDBReqControl,
	"db-ipc":         trace.CatDBIPC,
	"db-interpreter": trace.CatDBInterpreter,
	"db-other":       trace.CatDBOther,
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cmdAnalyze(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tsquery analyze", flag.ExitOnError)
	dir := storeFlags(fs)
	buildQuery := selectionFlags(fs)
	from := fs.Int64("from", 0, "first stream position to analyze (record range)")
	to := fs.Int64("to", 0, "stream position to stop before (0 = end of stream)")
	cpu := fs.Int("cpu", -1, "analyze only this CPU's misses (-1 = all)")
	class := fs.String("class", "", "analyze only this miss class ("+strings.Join(sortedKeys(classNames), ", ")+")")
	category := fs.String("category", "", "analyze only misses attributed to this Table-2 category slug")
	window := fs.Int("window", 0, "analysis window in misses (0 = default, matching in-process runs)")
	jsonOut := fs.Bool("json", false, "machine-readable output (per-archive SessionResult)")
	fs.Parse(args)
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	q, err := buildQuery()
	if err != nil {
		return err
	}
	if *from < 0 || (*to != 0 && *to < *from) {
		return fmt.Errorf("analyze: invalid record range [%d, %d)", *from, *to)
	}
	q.From, q.To = *from, *to
	if *cpu >= 0 {
		q.CPU = cpu
	}
	if *class != "" {
		c, ok := classNames[strings.ToLower(*class)]
		if !ok {
			return fmt.Errorf("analyze: unknown class %q (want one of %s)", *class, strings.Join(sortedKeys(classNames), ", "))
		}
		q.Class = &c
	}
	if *category != "" {
		c, ok := categorySlugs[strings.ToLower(*category)]
		if !ok {
			return fmt.Errorf("analyze: unknown category %q (want one of %s)", *category, strings.Join(sortedKeys(categorySlugs), ", "))
		}
		q.Category = &c
	}
	if err := cli.NonNegative("-window", *window); err != nil {
		return err
	}

	opts := tempstream.StreamOptions{Analysis: core.Options{MaxMisses: *window}}
	results, errs := s.Analyze(q, opts)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "tsquery: warning: %v (archive skipped)\n", e)
	}

	if *jsonOut {
		type line struct {
			Entry  store.Entry           `json:"entry"`
			Result *server.SessionResult `json:"result"`
		}
		out := make([]line, 0, len(results))
		for _, r := range results {
			out = append(out, line{Entry: r.Entry, Result: server.ResultOf(r.Context)})
		}
		if err := json.NewEncoder(w).Encode(out); err != nil {
			return err
		}
	} else {
		for _, r := range results {
			sr := server.ResultOf(r.Context)
			fmt.Fprintf(w, "%-40s records=%-9d window=%-7d streams=%5.1f%% rules=%-6d median_len=%-5.0f mpki=%7.3f digest=%016x\n",
				r.Entry.ID, sr.Header.Misses, sr.Window, 100*sr.StreamFrac,
				sr.GrammarRules, sr.MedianStreamLen, sr.MPKI, sr.WindowDigest)
		}
		fmt.Fprintf(w, "# %d archives analyzed, %d skipped\n", len(results), len(errs))
	}
	if len(results) == 0 && len(errs) > 0 {
		return errAllSkipped
	}
	return nil
}

func cmdPrune(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tsquery prune", flag.ExitOnError)
	dir := storeFlags(fs)
	maxBytes := fs.Int64("max-bytes", 0, "retention byte budget (0 = no size cap)")
	maxAge := fs.Duration("max-age", 0, "retention age limit (0 = no age limit)")
	orphans := fs.Bool("orphans", false, "also reclaim orphan archives and crashed writers' temp files")
	grace := fs.Duration("orphan-grace", time.Minute, "leave orphans younger than this alone (in-flight writers)")
	jsonOut := fs.Bool("json", false, "machine-readable output")
	fs.Parse(args)
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	removed, err := s.Prune(store.Retention{
		MaxBytes: *maxBytes, MaxAge: *maxAge,
		Orphans: *orphans, OrphanGrace: *grace,
	}, time.Now().UTC())
	if err != nil {
		return err
	}
	if *jsonOut {
		out := struct {
			Removed   []store.Entry `json:"removed"`
			Remaining int           `json:"remaining"`
			Bytes     int64         `json:"bytes"`
		}{Removed: removed, Remaining: s.Archives(), Bytes: s.Bytes()}
		if out.Removed == nil {
			out.Removed = []store.Entry{}
		}
		return json.NewEncoder(w).Encode(out)
	}
	for _, e := range removed {
		fmt.Fprintf(w, "pruned %s (%d bytes, recorded %s)\n", e.ID, e.Bytes, e.Start.Format(time.RFC3339))
	}
	fmt.Fprintf(w, "# %d archives pruned; %d remain, %d bytes\n", len(removed), s.Archives(), s.Bytes())
	return nil
}
