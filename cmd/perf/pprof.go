package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A minimal decoder for the gzipped protobuf runtime/pprof writes: just
// enough of profile.proto (sample, location, function, string_table) to
// attribute every CPU sample's leaf frame to a Go package. It exists so
// the benchmark can name the layer a run spent its time in without any
// change inside the program and without a dependency outside the standard
// library.

// Field numbers of profile.proto that the fold needs.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("pprof: truncated message")

// protoReader walks one protobuf message's fields.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are skipped
// over and reported with neither.
func (r *protoReader) next() (field int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			data = r.b[:n]
			r.b = r.b[n:]
		}
	case 5:
		err = r.skip(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, val, data, err
}

func (r *protoReader) skip(n int) error {
	if n > len(r.b) {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// repeatedVarints appends the values of one occurrence of a repeated
// integer field, which may arrive packed (bytes) or unpacked (one varint).
func repeatedVarints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type profSampleRec struct {
	leaf  uint64 // location id of the innermost frame
	value int64  // last sample value: cpu nanoseconds in a CPU profile
}

// foldProfile reads a gzipped pprof CPU profile and returns the share of
// sample value whose leaf frame lies in each Go package, keyed by import
// path. Shares sum to 1; an empty profile yields an empty map.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	var (
		samples  []profSampleRec
		locFunc  = map[uint64]uint64{} // location id -> leaf-most function id
		funcName = map[uint64]uint64{} // function id -> string index
		strs     []string
	)
	r := protoReader{raw}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case profSample:
			s, ok, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			if ok {
				samples = append(samples, s)
			}
		case profLocation:
			id, fn, err := decodeLocation(data)
			if err != nil {
				return nil, err
			}
			locFunc[id] = fn
		case profFunction:
			id, name, err := decodeFunction(data)
			if err != nil {
				return nil, err
			}
			funcName[id] = name
		case profStringTable:
			strs = append(strs, string(data))
		}
	}

	byPkg := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		byPkg[packageOf(name)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(byPkg))
	if total == 0 {
		return shares, nil
	}
	for pkg, v := range byPkg {
		shares[pkg] = float64(v) / float64(total)
	}
	return shares, nil
}

func decodeSample(b []byte) (profSampleRec, bool, error) {
	var locs, vals []uint64
	r := protoReader{b}
	for len(r.b) > 0 {
		field, val, data, err := r.next()
		if err != nil {
			return profSampleRec{}, false, err
		}
		switch field {
		case sampleLocationID:
			locs, err = repeatedVarints(locs, val, data)
		case sampleValue:
			vals, err = repeatedVarints(vals, val, data)
		}
		if err != nil {
			return profSampleRec{}, false, err
		}
	}
	if len(locs) == 0 || len(vals) == 0 {
		return profSampleRec{}, false, nil
	}
	return profSampleRec{leaf: locs[0], value: int64(vals[len(vals)-1])}, true, nil
}

// decodeLocation returns the location's id and the function of its first
// line entry — the innermost function when calls were inlined.
func decodeLocation(b []byte) (id, fn uint64, err error) {
	haveLine := false
	r := protoReader{b}
	for len(r.b) > 0 {
		field, val, data, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case locationID:
			id = val
		case locationLine:
			if haveLine {
				continue
			}
			haveLine = true
			lr := protoReader{data}
			for len(lr.b) > 0 {
				lf, lv, _, err := lr.next()
				if err != nil {
					return 0, 0, err
				}
				if lf == lineFunctionID {
					fn = lv
				}
			}
		}
	}
	return id, fn, nil
}

func decodeFunction(b []byte) (id, name uint64, err error) {
	r := protoReader{b}
	for len(r.b) > 0 {
		field, val, _, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case functionID:
			id = val
		case functionName:
			name = val
		}
	}
	return id, name, nil
}

// packageOf extracts the import path from a symbol name as the Go linker
// writes it: "dctcpplus/internal/sim.(*Scheduler).Step" -> the text before
// the first dot that follows the last slash.
func packageOf(symbol string) string {
	if symbol == "" {
		return "unknown"
	}
	rest := symbol
	prefix := ""
	if i := strings.LastIndexByte(symbol, '/'); i >= 0 {
		prefix, rest = symbol[:i+1], symbol[i+1:]
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return prefix + rest
}

// layerNames are the buckets a profile folds into: the simulator's own
// layers, the Go runtime (allocator, collector, scheduler), and everything
// else (other standard-library code and the benchmark's own frames).
var layerNames = []string{
	"sim", "netsim", "packet", "tcp", "dctcp", "core", "workload", "exp",
	"sweep", "stats", "telemetry", "oracle", "trace", "runtime", "other",
}

const internalPrefix = "dctcpplus/internal/"

// layerOf maps an import path onto a layerNames bucket.
func layerOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, internalPrefix):
		layer := strings.TrimPrefix(pkg, internalPrefix)
		if i := strings.IndexByte(layer, '/'); i >= 0 {
			layer = layer[:i] // sweep/pool -> sweep
		}
		if layer == "d2tcp" {
			return "dctcp" // the D2TCP variant is a DCTCP congestion module
		}
		for _, known := range layerNames {
			if layer == known {
				return layer
			}
		}
	}
	return "other"
}

// foldLayers collapses package shares into layer shares.
func foldLayers(byPkg map[string]float64) map[string]float64 {
	pkgs := make([]string, 0, len(byPkg))
	for pkg := range byPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs) // fixed summation order: float addition is not associative
	out := make(map[string]float64, len(layerNames))
	for _, pkg := range pkgs {
		out[layerOf(pkg)] += byPkg[pkg]
	}
	return out
}
