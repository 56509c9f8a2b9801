package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/ucad/ucad/internal/obs"
)

// scrape is one reading of a metrics registry, taken the way an operator
// would: through the text exposition. It is how the benchmark reads the
// program's own counters and histograms without reaching inside it.
type scrape map[string]float64 // "name{labels}" -> value

func scrapeRegistry(reg *obs.Registry) scrape {
	var buf bytes.Buffer
	reg.WriteText(&buf) // a bytes.Buffer write cannot fail
	out := make(scrape)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// total sums every series of a family (all tenants, all shards).
func (s scrape) total(name string) float64 {
	var sum float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// minus returns the growth of every series since an earlier scrape.
func (s scrape) minus(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// histMean is a histogram family's mean observation, all series merged.
func (s scrape) histMean(name string) float64 {
	n := s.total(name + "_count")
	if n == 0 {
		return 0
	}
	return s.total(name+"_sum") / n
}

// histBound returns the upper bound of the bucket holding quantile q of
// a histogram family, all series merged. It is a bound, not an estimate:
// the program's histograms are bucketed, and the benchmark does not
// interpolate inside a bucket.
func (s scrape) histBound(name string, q float64) float64 {
	cum := make(map[float64]float64)
	prefix := name + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		rest := k[i+4:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			continue
		}
		le := math.Inf(1)
		if rest[:j] != "+Inf" {
			f, err := strconv.ParseFloat(rest[:j], 64)
			if err != nil {
				continue
			}
			le = f
		}
		cum[le] += v
	}
	if len(cum) == 0 {
		return 0
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	want := q * cum[math.Inf(1)]
	for _, le := range bounds {
		if cum[le] >= want {
			return le
		}
	}
	return math.Inf(1)
}
