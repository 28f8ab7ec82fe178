package main

import (
	_ "embed"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layersTable maps profiled functions to the repository's layers; see
// the header of layers.txt for its format.
//
//go:embed layers.txt
var layersTable string

// stackSample is one distinct stack of a profile and its total value:
// seconds for a CPU profile, bytes for an allocation profile.
type stackSample struct {
	value  float64
	frames []string // leaf first
}

// pprofTraces reads a profile through `go tool pprof -traces`.
func pprofTraces(path, sampleIndex string) ([]stackSample, error) {
	args := []string{"tool", "pprof", "-traces"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	out, err := exec.Command("go", append(args, path)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v", path, err)
	}
	return parseTraces(string(out))
}

// parseTraces parses pprof's -traces text: blocks separated by
// "-----------+---" rules, each opening with "<value> <leaf function>"
// (after optional "label: value" lines) and listing callers below.
func parseTraces(text string) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	inBlock := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBlock = true
			cur = nil
			continue
		}
		if !inBlock {
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if cur == nil {
			if strings.HasSuffix(f[0], ":") {
				continue // a sample label line
			}
			if len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			v, err := parseQuantity(f[0])
			if err != nil {
				return nil, err
			}
			out = append(out, stackSample{value: v, frames: []string{strings.Join(f[1:], " ")}})
			cur = &out[len(out)-1]
			continue
		}
		cur.frames = append(cur.frames, strings.TrimSpace(line))
	}
	return out, nil
}

// parseQuantity converts pprof's "10ms", "1.20s", "512.02kB" to seconds
// or bytes.
func parseQuantity(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"hrs", 3600}, {"mins", 60}, {"s", 1},
		{"kB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"B", 1},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("pprof quantity %q: %v", s, err)
			}
			return v * u.scale, nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof quantity %q: %v", s, err)
	}
	return v, nil
}

// callerLayer marks functions whose time belongs to whoever called
// them (memmove, allocation, syscalls, preemption).
const callerLayer = "caller"

// layerRule maps every function whose name starts with prefix.
type layerRule struct{ prefix, layer string }

type layerMap struct{ rules []layerRule }

// parseLayerMap reads "<function prefix> <layer>" lines; blank lines
// and lines starting with # are ignored.
func parseLayerMap(text string) (*layerMap, error) {
	m := &layerMap{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("layers.txt:%d: want \"<prefix> <layer>\", got %q", n+1, line)
		}
		m.rules = append(m.rules, layerRule{f[0], f[1]})
	}
	return m, nil
}

// lookup returns the layer of the longest matching prefix.
func (m *layerMap) lookup(fn string) (string, bool) {
	best, layer := -1, ""
	for _, r := range m.rules {
		if len(r.prefix) > best && strings.HasPrefix(fn, r.prefix) {
			best, layer = len(r.prefix), r.layer
		}
	}
	return layer, best >= 0
}

// attribute charges a stack to a layer: its leaf function's layer, or
// for a leaf marked "caller" the first caller with a layer of its own.
// An empty result is unmapped time.
func (m *layerMap) attribute(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	layer, ok := m.lookup(frames[0])
	if !ok {
		return ""
	}
	if layer != callerLayer {
		return layer
	}
	for _, fn := range frames[1:] {
		if l, ok := m.lookup(fn); ok && l != callerLayer {
			return l
		}
	}
	return ""
}

// layerSeconds sums CPU samples per layer; "" collects unmapped time.
func (m *layerMap) layerSeconds(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[m.attribute(s.frames)] += s.value
	}
	return out
}
