package main

import (
	"bufio"
	"strconv"
	"strings"
)

// parseProm reads a Prometheus text exposition into series → value.
// The key is the series as written, labels included. Comments and
// exemplar suffixes (`# {trace_id="..."} ...`) are ignored.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, ' ')
		if close := strings.LastIndexByte(line, '}'); close > cut {
			continue
		}
		if cut <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[cut+1:]), 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// promDelta returns after − before for every series in after; a
// series absent before counts from zero.
func promDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
