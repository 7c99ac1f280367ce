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

// Prometheus text-format exposition (version 0.0.4), stdlib only. The
// registry's plain and labeled metrics render as counter/gauge families;
// histograms render the full _bucket/_sum/_count series with cumulative
// bucket counts and a closing +Inf bucket. Output is deterministic: family
// names sort lexically and labeled children sort by label tuple, so two
// snapshots of identical state serialize byte-identically.

// PromContentType is the Content-Type the /metrics endpoint serves.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// sanitizeMetricName maps an arbitrary metric name onto the exposition
// charset [a-zA-Z_:][a-zA-Z0-9_:]*; invalid runes become '_'.
func sanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// sanitizeLabelName maps a label name onto [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelName(name string) string {
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// formatPromValue renders a sample value; Prometheus spells infinities
// +Inf/-Inf and accepts Go's shortest-round-trip float syntax otherwise.
func formatPromValue(v float64) string {
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

// promLabelPairs renders {k1="v1",...} from parallel name/value slices,
// optionally appending an le pair; empty input renders as "".
func promLabelPairs(labels, values []string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sanitizeLabelName(l))
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// histogramSeries snapshots one histogram as its exposition series:
// ascending cumulative bucket counts per bound, the total count (the +Inf
// bucket), and the sum. Reading races with Observe; the cumulative counts
// are summed from one pass over the buckets so the series stays
// internally consistent (count == +Inf bucket) regardless.
func (h *Histogram) histogramSeries() (bounds []float64, cum []int64, count int64, sum float64) {
	bounds = h.bounds
	cum = make([]int64, len(h.bounds))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		if i < len(cum) {
			cum[i] = running
		}
	}
	return bounds, cum, running, h.Sum()
}

func writePromHistogram(w io.Writer, name, labelPairs string, h *Histogram) error {
	bounds, cum, count, sum := h.histogramSeries()
	base := ""
	if labelPairs != "" {
		base = labelPairs[1 : len(labelPairs)-1] // strip braces for merging with le
	}
	for i, b := range bounds {
		pairs := `{le="` + formatPromValue(b) + `"}`
		if base != "" {
			pairs = "{" + base + `,le="` + formatPromValue(b) + `"}`
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, pairs, cum[i]); err != nil {
			return err
		}
	}
	pairs := `{le="+Inf"}`
	if base != "" {
		pairs = "{" + base + `,le="+Inf"}`
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, pairs, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPairs, formatPromValue(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelPairs, count)
	return err
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. A nil registry writes nothing.
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	r.mu.RLock()
	counterNames := make([]string, 0, len(r.counters)+len(r.counterVecs))
	for name := range r.counters {
		counterNames = append(counterNames, name)
	}
	for name := range r.counterVecs {
		counterNames = append(counterNames, name)
	}
	gaugeNames := make([]string, 0, len(r.gauges)+len(r.gaugeVecs))
	for name := range r.gauges {
		gaugeNames = append(gaugeNames, name)
	}
	for name := range r.gaugeVecs {
		gaugeNames = append(gaugeNames, name)
	}
	histNames := make([]string, 0, len(r.histograms)+len(r.histogramVecs))
	for name := range r.histograms {
		histNames = append(histNames, name)
	}
	for name := range r.histogramVecs {
		histNames = append(histNames, name)
	}
	counters, gauges, hists := r.counters, r.gauges, r.histograms
	counterVecs, gaugeVecs, histVecs := r.counterVecs, r.gaugeVecs, r.histogramVecs
	r.mu.RUnlock()

	sort.Strings(counterNames)
	sort.Strings(gaugeNames)
	sort.Strings(histNames)
	dedup := func(names []string) []string {
		out := names[:0]
		for i, n := range names {
			if i == 0 || n != names[i-1] {
				out = append(out, n)
			}
		}
		return out
	}

	for _, name := range dedup(counterNames) {
		prom := sanitizeMetricName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", prom)
		if c, ok := counters[name]; ok {
			fmt.Fprintf(bw, "%s %d\n", prom, c.Value())
		}
		if v, ok := counterVecs[name]; ok {
			v.mu.RLock()
			for _, key := range sortedChildKeys(v.children) {
				fmt.Fprintf(bw, "%s%s %d\n", prom,
					promLabelPairs(v.labels, v.tuples[key].values, ""), v.children[key].Value())
			}
			v.mu.RUnlock()
		}
	}
	for _, name := range dedup(gaugeNames) {
		prom := sanitizeMetricName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", prom)
		if g, ok := gauges[name]; ok {
			fmt.Fprintf(bw, "%s %s\n", prom, formatPromValue(g.Value()))
		}
		if v, ok := gaugeVecs[name]; ok {
			v.mu.RLock()
			for _, key := range sortedChildKeys(v.children) {
				fmt.Fprintf(bw, "%s%s %s\n", prom,
					promLabelPairs(v.labels, v.tuples[key].values, ""),
					formatPromValue(v.children[key].Value()))
			}
			v.mu.RUnlock()
		}
	}
	for _, name := range dedup(histNames) {
		prom := sanitizeMetricName(name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", prom)
		if h, ok := hists[name]; ok {
			if err := writePromHistogram(bw, prom, "", h); err != nil {
				return err
			}
		}
		if v, ok := histVecs[name]; ok {
			v.mu.RLock()
			for _, key := range sortedChildKeys(v.children) {
				err := writePromHistogram(bw, prom,
					promLabelPairs(v.labels, v.tuples[key].values, ""), v.children[key])
				if err != nil {
					v.mu.RUnlock()
					return err
				}
			}
			v.mu.RUnlock()
		}
	}
	return bw.Flush()
}

// PromLabel is one parsed name="value" pair.
type PromLabel struct {
	Name, Value string
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels []PromLabel
	Value  float64
}

// Label returns the sample's value for a label name, or "".
func (s PromSample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// PromFamily is one parsed metric family: a # TYPE declaration plus the
// samples that belong to it (histogram families own their _bucket/_sum/
// _count series). Samples with no preceding TYPE line land in an
// "untyped" family.
type PromFamily struct {
	Name    string
	Type    string
	Samples []PromSample
}

// ParsePrometheus parses and validates text exposition-format output —
// the verification half of WritePrometheus, used by the format gate in
// the tests. It enforces metric/label name charsets, quoted-and-escaped
// label values, parseable sample values, known TYPE declarations, and
// histogram shape: every histogram family must carry _sum, _count, a
// closing +Inf bucket equal to _count, ascending le bounds, and
// non-decreasing cumulative bucket counts.
func ParsePrometheus(r io.Reader) ([]PromFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var fams []PromFamily
	index := map[string]int{} // family name -> fams index
	cur := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("obs: prom line %d: malformed TYPE line", lineNo)
				}
				name, typ := fields[2], fields[3]
				if !validPromName(name) {
					return nil, fmt.Errorf("obs: prom line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: prom line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := index[name]; dup {
					return nil, fmt.Errorf("obs: prom line %d: duplicate TYPE for %q", lineNo, name)
				}
				index[name] = len(fams)
				fams = append(fams, PromFamily{Name: name, Type: typ})
				cur = index[name]
			}
			continue // HELP and other comments
		}
		sample, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: %w", lineNo, err)
		}
		fi := -1
		if cur >= 0 && sampleInFamily(sample.Name, &fams[cur]) {
			fi = cur
		} else if i, ok := index[sample.Name]; ok {
			fi = i
		} else {
			index[sample.Name] = len(fams)
			fams = append(fams, PromFamily{Name: sample.Name, Type: "untyped"})
			fi = index[sample.Name]
		}
		fams[fi].Samples = append(fams[fi].Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range fams {
		if fams[i].Type == "histogram" {
			if _, err := fams[i].Histograms(); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// sampleInFamily reports whether a sample name belongs to the family:
// exact match, or the _bucket/_sum/_count series of a histogram/summary.
func sampleInFamily(name string, f *PromFamily) bool {
	if name == f.Name {
		return true
	}
	if f.Type == "histogram" || f.Type == "summary" {
		return name == f.Name+"_bucket" || name == f.Name+"_sum" || name == f.Name+"_count"
	}
	return false
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validPromLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromSample parses `name[{labels}] value [timestamp]`.
func parsePromSample(line string) (PromSample, error) {
	var s PromSample
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !validPromName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parsePromLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp] after %q, got %q", s.Name, rest)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parsePromLabels parses a {name="value",...} block starting at text[0]
// == '{'; it returns the index one past the closing brace.
func parsePromLabels(text string) (int, []PromLabel, error) {
	var labels []PromLabel
	i := 1 // past '{'
	for {
		for i < len(text) && (text[i] == ' ' || text[i] == '\t') {
			i++
		}
		if i < len(text) && text[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(text) && text[i] != '=' {
			i++
		}
		if i >= len(text) {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		name := strings.TrimSpace(text[start:i])
		if !validPromLabelName(name) {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		i++ // past '='
		if i >= len(text) || text[i] != '"' {
			return 0, nil, fmt.Errorf("label %s: value must be quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(text) {
			c := text[i]
			if c == '\\' {
				if i+1 >= len(text) {
					return 0, nil, fmt.Errorf("label %s: dangling escape", name)
				}
				switch text[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("label %s: bad escape \\%c", name, text[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return 0, nil, fmt.Errorf("label %s: unterminated value", name)
		}
		labels = append(labels, PromLabel{Name: name, Value: val.String()})
		if i < len(text) && text[i] == ',' {
			i++
			continue
		}
		if i < len(text) && text[i] == '}' {
			return i + 1, labels, nil
		}
		return 0, nil, fmt.Errorf("want ',' or '}' after label %s", name)
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

// PromHistogram is one labeled series of a parsed histogram family: its
// labels (le excluded), the cumulative bucket counts by ascending upper
// bound (the last bound is +Inf), and its _sum and _count.
type PromHistogram struct {
	Labels     []PromLabel
	Bounds     []float64
	Cum        []float64
	Sum, Count float64
}

// Histograms splits a histogram family into its labeled series, in
// first-seen order, validating each one's shape: ascending le bounds,
// non-decreasing cumulative counts, a closing +Inf bucket, and _sum and
// _count present with _count equal to the +Inf bucket.
func (f *PromFamily) Histograms() ([]PromHistogram, error) {
	var out []PromHistogram
	var hasSum, hasCount []bool
	index := map[string]int{}
	for _, s := range f.Samples {
		var labels []PromLabel
		key := ""
		for _, l := range s.Labels {
			if l.Name != "le" {
				labels = append(labels, l)
				key += l.Name + "\xfe" + l.Value + "\xff"
			}
		}
		i, ok := index[key]
		if !ok {
			i = len(out)
			index[key] = i
			out = append(out, PromHistogram{Labels: labels})
			hasSum, hasCount = append(hasSum, false), append(hasCount, false)
		}
		h := &out[i]
		switch s.Name {
		case f.Name + "_bucket":
			leStr := s.Label("le")
			le, err := parsePromValue(leStr)
			if err != nil {
				return nil, fmt.Errorf("obs: histogram %s: bad le %q", f.Name, leStr)
			}
			if n := len(h.Bounds); n > 0 && le <= h.Bounds[n-1] {
				return nil, fmt.Errorf("obs: histogram %s: le bounds not ascending at %v", f.Name, le)
			}
			if n := len(h.Cum); n > 0 && s.Value < h.Cum[n-1] {
				return nil, fmt.Errorf("obs: histogram %s: bucket counts not cumulative at le=%v", f.Name, le)
			}
			h.Bounds = append(h.Bounds, le)
			h.Cum = append(h.Cum, s.Value)
		case f.Name + "_sum":
			h.Sum, hasSum[i] = s.Value, true
		case f.Name + "_count":
			h.Count, hasCount[i] = s.Value, true
		case f.Name:
			return nil, fmt.Errorf("obs: histogram %s: bare sample without _bucket/_sum/_count suffix", f.Name)
		}
	}
	for i, h := range out {
		n := len(h.Bounds)
		if n == 0 || !math.IsInf(h.Bounds[n-1], 1) {
			return nil, fmt.Errorf("obs: histogram %s: missing +Inf bucket", f.Name)
		}
		if !hasSum[i] || !hasCount[i] {
			return nil, fmt.Errorf("obs: histogram %s: missing _sum or _count", f.Name)
		}
		if h.Count != h.Cum[n-1] {
			return nil, fmt.Errorf("obs: histogram %s: _count %v != +Inf bucket %v", f.Name, h.Count, h.Cum[n-1])
		}
	}
	return out, nil
}

// Quantile estimates the q-quantile (q clamped to [0, 1]) the way
// Prometheus's histogram_quantile does: it finds the first non-empty
// bucket whose cumulative count reaches rank q·Count and interpolates
// linearly between that bucket's edges. The lowest bucket starts at 0
// (or at its own bound when that is ≤ 0), and a rank that lands in the
// +Inf bucket reports the highest finite bound. The error is bounded by
// the bucket width. An empty series is NaN.
func (h PromHistogram) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Cum) == 0 {
		return math.NaN()
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * h.Count
	i := sort.Search(len(h.Cum), func(i int) bool { return h.Cum[i] > 0 && h.Cum[i] >= rank })
	if i == len(h.Cum) {
		return math.NaN() // a NaN q matches no bucket
	}
	if math.IsInf(h.Bounds[i], 1) {
		if i == 0 {
			return math.NaN() // no finite bound to report
		}
		return h.Bounds[i-1]
	}
	lo, prev := math.Min(0, h.Bounds[i]), 0.0
	if i > 0 {
		lo, prev = h.Bounds[i-1], h.Cum[i-1]
	}
	return lo + (h.Bounds[i]-lo)*(rank-prev)/(h.Cum[i]-prev)
}
