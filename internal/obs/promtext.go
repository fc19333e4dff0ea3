package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the consumer side of the exposition format: a strict
// parser for the Prometheus text format (version 0.0.4) plus the
// naming-convention checks. The exposition tests round-trip every
// registry through it, and the end-to-end smokes scrape live daemons
// mid-load and fail on anything malformed — so the producer in
// expfmt.go is pinned by an independent reader, not by string-equality
// golden files.

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one parsed metric family: the # HELP / # TYPE header and
// every sample that belongs to it (histogram _bucket/_sum/_count series
// attach to their base family).
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// ParseText parses a text-format exposition strictly: every non-comment
// line must be a well-formed sample, every sample must belong to a
// family declared by a preceding # TYPE line, histogram series must use
// the _bucket/_sum/_count suffixes, and names and labels must be valid.
// The first violation is returned with its line number.
func ParseText(r io.Reader) ([]*Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var (
		fams   []*Family
		byName = make(map[string]*Family)
		cur    *Family
		ln     int
	)
	errf := func(format string, args ...any) error {
		return fmt.Errorf("line %d: %s", ln, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		ln++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				// Other comments are legal and ignored.
				continue
			}
			name := fields[2]
			if !ValidMetricName(name) {
				return nil, errf("invalid metric name %q in %s line", name, fields[1])
			}
			f := byName[name]
			if f == nil {
				f = &Family{Name: name}
				byName[name] = f
				fams = append(fams, f)
			}
			switch fields[1] {
			case "HELP":
				if len(fields) == 4 {
					f.Help = fields[3]
				}
			case "TYPE":
				if len(fields) != 4 {
					return nil, errf("TYPE line for %s missing type", name)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, errf("unknown type %q for %s", typ, name)
				}
				if f.Type != "" && f.Type != typ {
					return nil, errf("family %s re-declared as %s (was %s)", name, typ, f.Type)
				}
				if len(f.Samples) > 0 {
					return nil, errf("TYPE line for %s after its samples", name)
				}
				f.Type = typ
				cur = f
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, errf("%v", err)
		}
		base := s.Name
		fam := byName[base]
		if fam == nil || fam.Type == "histogram" {
			// Histogram series carry suffixes; attach to the base family.
			if trimmed, ok := histogramBase(s.Name, byName); ok {
				base, fam = trimmed, byName[trimmed]
			}
		}
		if fam == nil || fam.Type == "" {
			return nil, errf("sample %s has no preceding # TYPE line", s.Name)
		}
		if fam.Type == "histogram" && base == s.Name {
			return nil, errf("histogram %s sample missing _bucket/_sum/_count suffix", s.Name)
		}
		if fam.Type == "histogram" && strings.HasSuffix(s.Name, "_bucket") {
			if _, ok := s.Labels["le"]; !ok {
				return nil, errf("histogram bucket %s missing le label", s.Name)
			}
		}
		if cur != nil && fam != cur {
			// Interleaved families are legal in the spec but never produced
			// by our writer; accept them (scrapes may concatenate).
			cur = fam
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// histogramBase finds the declared histogram family a suffixed series
// name belongs to.
func histogramBase(name string, byName map[string]*Family) (string, bool) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f := byName[base]; f != nil && f.Type == "histogram" {
				return base, true
			}
		}
	}
	return "", false
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("sample line %q does not start with a metric name", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, fmt.Errorf("sample %s: %v", s.Name, err)
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %s: want `value [timestamp]`, got %q", s.Name, strings.TrimSpace(rest))
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %s: bad value %q", s.Name, fields[0])
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %s: bad timestamp %q", s.Name, fields[1])
		}
	}
	return s, nil
}

// parseLabels parses a {k="v",...} block starting at s[0] == '{',
// returning the index just past the closing brace.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && isNameChar(s[i], i == start) {
			i++
		}
		if i == start {
			return 0, fmt.Errorf("bad label name at %q", s[i:])
		}
		name := s[start:i]
		if !ValidLabelName(name) && name != "le" {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		if i >= len(s) || s[i] != '=' {
			return 0, fmt.Errorf("label %s missing =", name)
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %s value not quoted", name)
		}
		i++
		var val strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
				if i >= len(s) {
					return 0, fmt.Errorf("label %s value ends mid-escape", name)
				}
				switch s[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("label %s value has bad escape \\%c", name, s[i])
				}
				i++
				continue
			}
			val.WriteByte(s[i])
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("label %s value unterminated", name)
		}
		i++ // closing quote
		out[name] = val.String()
	}
}

// parseValue parses a sample value, accepting the spelled-out specials.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func isNameChar(b byte, first bool) bool {
	alpha := (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b == '_' || b == ':'
	if first {
		return alpha
	}
	return alpha || (b >= '0' && b <= '9')
}

// ValidMetricName reports whether name is a legal Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		if !isNameChar(name[i], i == 0) {
			return false
		}
	}
	return true
}

// ValidLabelName reports whether name is a legal label name:
// [a-zA-Z_][a-zA-Z0-9_]* and not double-underscore reserved.
func ValidLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i := 0; i < len(name); i++ {
		b := name[i]
		alpha := (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b == '_'
		if i == 0 && !alpha {
			return false
		}
		if !alpha && !(b >= '0' && b <= '9') {
			return false
		}
	}
	return true
}

// LintNames checks the repository's naming conventions over a parsed
// exposition: snake_case with a known subsystem prefix, counters ending
// in _total, and unit suffixes drawn from the allowed set. It returns one
// message per violation.
func LintNames(fams []*Family) []string {
	var problems []string
	for _, f := range fams {
		problems = append(problems, lintName(f.Name, f.Type)...)
	}
	sort.Strings(problems)
	return problems
}

// allowedPrefixes are the subsystem namespaces the fleet exports.
var allowedPrefixes = []string{"tsserved_", "tsgate_", "store_", "go_", "process_"}

func lintName(name, typ string) []string {
	var problems []string
	hasPrefix := false
	for _, p := range allowedPrefixes {
		if strings.HasPrefix(name, p) {
			hasPrefix = true
			break
		}
	}
	if !hasPrefix {
		problems = append(problems, fmt.Sprintf("%s: missing subsystem prefix (want one of %v)", name, allowedPrefixes))
	}
	if strings.ToLower(name) != name {
		problems = append(problems, fmt.Sprintf("%s: metric names are snake_case", name))
	}
	switch typ {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			problems = append(problems, fmt.Sprintf("%s: counters end in _total", name))
		}
	case "gauge", "histogram":
		if strings.HasSuffix(name, "_total") {
			problems = append(problems, fmt.Sprintf("%s: _total is reserved for counters", name))
		}
	}
	return problems
}
