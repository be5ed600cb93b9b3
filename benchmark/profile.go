package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// This file reads the CPU profile the traced run writes (runtime/pprof's
// gzipped profile.proto) and buckets its samples by layer. Only the
// handful of message fields the bucketing needs are decoded; everything
// else is skipped by wire type.

// cpuProfile is a decoded CPU profile: one stack per sample, leaf first,
// with inlined frames expanded, and the sample's CPU nanoseconds.
type cpuProfile struct {
	stacks [][]string
	ns     []int64
}

// hostLayers are the buckets of <layer>.host_share: this repository's
// simulator packages by their first path element under repro/internal,
// the Go runtime, and the rest of the standard library. Repository code
// outside these packages, the benchmark program included, lands in "other".
var hostLayers = []string{"cache", "mmu", "sim", "machine", "kernel", "gc", "heap",
	"jvm", "workloads", "swaptier", "mem", "sched", "go_runtime", "stdlib", "other"}

// layerOf maps a Go symbol name to its host_share bucket.
func layerOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		layer := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(layer, '/'); i >= 0 {
			layer = layer[:i]
		}
		for _, l := range hostLayers {
			if l == layer {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "repro/"), pkg == "main":
		return "other"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"),
		strings.HasPrefix(pkg, "internal/runtime/"), !strings.Contains(fn, "."):
		return "go_runtime"
	}
	return "stdlib"
}

// leafShares returns each bucket's share of CPU time by the leaf frame
// (self time), with every bucket of hostLayers present.
func (p *cpuProfile) leafShares() map[string]float64 {
	out := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		out[l] = 0
	}
	total := p.total()
	if total == 0 {
		return out
	}
	for i, st := range p.stacks {
		if len(st) > 0 {
			out[layerOf(st[0])] += float64(p.ns[i]) / float64(total)
		}
	}
	return out
}

// inclusiveShare is the share of CPU time whose stack holds a frame
// matching match.
func (p *cpuProfile) inclusiveShare(match func(fn string) bool) float64 {
	total := p.total()
	if total == 0 {
		return 0
	}
	var in int64
	for i, st := range p.stacks {
		for _, fn := range st {
			if match(fn) {
				in += p.ns[i]
				break
			}
		}
	}
	return float64(in) / float64(total)
}

// topLeaves lists the n functions with the most self time and their share.
func (p *cpuProfile) topLeaves(n int) []leafShare {
	total := p.total()
	by := map[string]int64{}
	for i, st := range p.stacks {
		if len(st) > 0 {
			by[st[0]] += p.ns[i]
		}
	}
	out := make([]leafShare, 0, len(by))
	for fn, ns := range by {
		out = append(out, leafShare{fn, float64(ns) / float64(total)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Share != out[b].Share {
			return out[a].Share > out[b].Share
		}
		return out[a].Function < out[b].Function
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// leafShare is one row of the per-layer JSON's top_leaf_functions.
type leafShare struct {
	Function string  `json:"function"`
	Share    float64 `json:"share"`
}

func (p *cpuProfile) total() int64 {
	var t int64
	for _, ns := range p.ns {
		t += ns
	}
	return t
}

// readProfile decodes the gzipped CPU profile at path.
func readProfile(path string) (*cpuProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return p, nil
}

// profile.proto field numbers used below.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

func decodeProfile(b []byte) (*cpuProfile, error) {
	var (
		strs      []string
		types     []int64 // sample_type[i].type, a string index
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs     = map[uint64]int64{}    // function id -> name string index
	)
	err := fields(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(msg))
		case profSampleType:
			return fields(msg, func(n, _ int, v uint64, _ []byte) error {
				if n == valueTypeType {
					types = append(types, int64(v))
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := fields(msg, func(n, w int, v uint64, m []byte) error {
				switch n {
				case sampleLocationID:
					return repeated(w, v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return repeated(w, v, m, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(msg, func(n, _ int, v uint64, m []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return fields(m, func(n, _ int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(msg, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; weight by the
	// nanoseconds when present.
	vi := len(types) - 1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			vi = i
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, fid := range locations[l] {
				stack = append(stack, str(funcs[fid]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.ns = append(p.ns, s.values[vi])
	}
	return p, nil
}

type rawSample struct {
	locs   []uint64
	values []int64
}

// fields walks the protobuf message b, calling fn with each field's
// number and wire type, plus its varint value (wire type 0) or its bytes
// (wire type 2). Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errMalformed
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			b = b[4:]
			continue
		default:
			return errMalformed
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// repeated delivers a repeated varint field in either encoding: one value
// per field (wire type 0) or packed (wire type 2).
func repeated(wire int, v uint64, msg []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errMalformed
		}
		add(x)
		msg = msg[n:]
	}
	return nil
}

var errMalformed = errors.New("malformed protobuf")
