package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition series: a metric name, its label set and
// the sample value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Metrics is a parsed exposition page.
type Metrics struct {
	Samples []Sample
	// Types maps metric names to their declared # TYPE (counter, gauge,
	// histogram) when one was present.
	Types map[string]string
}

// Get returns the first sample with the given name (and, if labels given as
// alternating key/value pairs, matching those labels).
func (m *Metrics) Get(name string, kv ...string) (Sample, bool) {
	if len(kv)%2 != 0 {
		panic("telemetry: Get wants alternating label key/value pairs")
	}
outer:
	for _, s := range m.Samples {
		if s.Name != name {
			continue
		}
		for i := 0; i < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue outer
			}
		}
		return s, true
	}
	return Sample{}, false
}

// ParseMetrics parses a Prometheus text-format (version 0.0.4) exposition
// page: `name{label="value",...} value` sample lines plus # HELP / # TYPE
// comments. It is deliberately minimal — no timestamps, no exemplars — but
// strict about what it does cover: any line it cannot parse is an error, so
// a test feeding it a daemon's /metrics output proves the whole page
// conforms.
func ParseMetrics(text string) (*Metrics, error) {
	m := &Metrics{Types: make(map[string]string)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				if !validName(fields[2]) {
					return nil, fmt.Errorf("line %d: invalid metric name %q in TYPE comment", ln+1, fields[2])
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", ln+1, fields[3])
				}
				m.Types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		m.Samples = append(m.Samples, s)
	}
	return m, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	// Name runs to the first '{' or space.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		// The label block must be scanned quote-aware: a label value may
		// legally contain '}', ',' or '=', so searching for the closing brace
		// textually would split the block in the wrong place.
		n, err := parseLabelBlock(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[n:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	// A trailing timestamp would appear as a second field; reject it — the
	// repo's daemons never emit one.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseValue accepts what the exposition format emits: decimal floats plus
// the literal +Inf/-Inf/NaN forms (strconv also accepts spelling variants
// like "inf"; samples are produced by machines, so leniency there is safe).
func parseValue(raw string) (float64, error) {
	return strconv.ParseFloat(raw, 64)
}

// parseLabelBlock parses a `{name="value",...}` block starting at
// rest[0]=='{' into dst, returning the number of input bytes consumed.
func parseLabelBlock(rest string, dst map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		// Skip separators and whitespace before a name or the closing brace.
		for i < len(rest) && (rest[i] == ',' || rest[i] == ' ' || rest[i] == '\t') {
			i++
		}
		if i >= len(rest) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if rest[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label %q has no value", rest[i:])
		}
		name := strings.TrimSpace(rest[i : i+eq])
		if !validName(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		for i < len(rest) && (rest[i] == ' ' || rest[i] == '\t') {
			i++
		}
		if i >= len(rest) || rest[i] != '"' {
			return 0, fmt.Errorf("label %q value is not quoted", name)
		}
		value, n, err := unquoteLabelValue(rest[i:])
		if err != nil {
			return 0, fmt.Errorf("label %q: %w", name, err)
		}
		if _, dup := dst[name]; dup {
			return 0, fmt.Errorf("label %q repeated", name)
		}
		dst[name] = value
		i += n
	}
}

// unquoteLabelValue decodes one quoted label value starting at rest[0]=='"',
// returning the value and the number of input bytes consumed.
func unquoteLabelValue(rest string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			if i+1 >= len(rest) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			switch rest[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", rest[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(rest[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated quoted value")
}

// HistogramQuantile estimates quantile q (clamped to [0, 1]) of the
// observations behind a histogram's cumulative bucket counts, keyed by upper
// bound (the parsed le label; strconv.ParseFloat reads its +Inf form). Counts
// of several instances add per bound before the call. The quantile is linearly
// interpolated inside the owning bucket, exactly Prometheus's
// histogram_quantile estimator: the true quantile lies within the owning
// bucket, so the estimate is off by at most one bucket width. The observation
// count is the +Inf bucket's (the sum of the buckets on a page without one);
// ok is false when it is zero.
func HistogramQuantile(cumulative map[float64]float64, q float64) (v float64, ok bool) {
	type bucket struct{ le, count float64 }
	buckets := make([]bucket, 0, len(cumulative))
	total := 0.0
	for le, c := range cumulative {
		buckets = append(buckets, bucket{le, c})
		if math.IsInf(le, 1) {
			total = c
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	// Each bound's count contains every smaller bound's. Convert to per-bucket
	// counts for interpolation; clamp the tiny negative artifacts an unlucky
	// scrape alignment can produce.
	for i := len(buckets) - 1; i > 0; i-- {
		buckets[i].count = math.Max(buckets[i].count-buckets[i-1].count, 0)
	}
	if total == 0 {
		for _, b := range buckets {
			total += b.count
		}
	}
	if total <= 0 {
		return 0, false
	}
	rank := math.Min(math.Max(q, 0), 1) * total
	cum, lo := 0.0, 0.0
	for _, b := range buckets {
		cum += b.count
		if cum >= rank && b.count > 0 {
			if math.IsInf(b.le, 1) {
				// The observation is beyond the last finite bound; the bound
				// itself is the best (and Prometheus's) answer.
				return lo, true
			}
			return lo + (b.le-lo)*(rank-(cum-b.count))/b.count, true
		}
		if !math.IsInf(b.le, 1) {
			lo = b.le
		}
	}
	// rank beyond every bucket (rounding): the largest finite bound.
	return lo, true
}
