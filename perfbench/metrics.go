package main

import (
	"sort"
	"strings"

	"lbsq"
)

// metricSnap is one DB.Metrics() snapshot: counters and gauges by
// series key (`name{k=v,...}`), histograms as `key#count` and `key#sum`.
type metricSnap map[string]float64

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + "=" + labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func snapshot(db *lbsq.DB) metricSnap {
	s := metricSnap{}
	for _, m := range db.Metrics() {
		k := seriesKey(m.Name, m.Labels)
		if m.Kind == lbsq.MetricHistogram {
			s[k+"#count"] += float64(m.Count)
			s[k+"#sum"] += m.Sum
			continue
		}
		s[k] += m.Value
	}
	return s
}

// sum adds every series of the metric whose labels include all of
// `match` (histograms: pass suffix "#count" or "#sum").
func (s metricSnap) sum(name, suffix string, match ...string) float64 {
	total := 0.0
	for k, v := range s {
		if (suffix == "" && strings.Contains(k, "#")) || !strings.HasSuffix(k, suffix) || (k != name+suffix && !strings.HasPrefix(k, name+"{")) {
			continue
		}
		ok := true
		for _, m := range match {
			if !strings.Contains(k, m) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after − before for one metric.
func delta(before, after metricSnap, name, suffix string, match ...string) float64 {
	return after.sum(name, suffix, match...) - before.sum(name, suffix, match...)
}
