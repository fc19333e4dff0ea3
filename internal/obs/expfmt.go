package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per
// family, then one sample line per child (histograms expand to
// _bucket/_sum/_count series). Families render in registration order —
// stable across scrapes — and children in creation order; collect-func
// families are sampled inside the call.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		if f.collect != nil {
			// Read-only family: sample now. Collect funcs may emit in any
			// order; sort by label signature for stable scrapes.
			type sample struct {
				labels string
				v      float64
			}
			var samples []sample
			f.collect(func(labelValues []string, v float64) {
				samples = append(samples, sample{labelSet(f.labels, labelValues, ""), v})
			})
			sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
			for _, s := range samples {
				fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatValue(s.v))
			}
			continue
		}
		f.mu.Lock()
		children := append([]*child(nil), f.order...)
		f.mu.Unlock()
		for _, c := range children {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelSet(f.labels, c.values, ""), formatValue(c.c.Value()))
			case KindHistogram:
				writeHistogram(bw, f, c)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram child: cumulative _bucket series
// per bound plus the +Inf bucket, then _sum and _count.
func writeHistogram(w io.Writer, f *family, c *child) {
	h := c.h
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelSet(f.labels, c.values, formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelSet(f.labels, c.values, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelSet(f.labels, c.values, ""), formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelSet(f.labels, c.values, ""), cum)
}

// labelSet renders {k="v",...}; le non-empty appends the histogram
// bucket label. Returns "" for no labels.
func labelSet(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatValue renders a sample value the way Prometheus expects:
// shortest float representation, Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// Handler serves the registry as a scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
