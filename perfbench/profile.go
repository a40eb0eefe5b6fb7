package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares decodes a runtime/pprof CPU profile (gzipped protobuf, see
// github.com/google/pprof/proto/profile.proto) and returns the share of CPU
// time per layer. A sample goes to the innermost frame, inlined frames
// included, that is either Go runtime code or a coschedsim/internal
// package; a sample with neither goes to "other", as do internal packages
// outside profiledLayers. The shares sum to 1 when the profile has samples.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	known := map[string]bool{}
	for _, l := range profiledLayers {
		known[l] = true
	}
	layerOf := func(fn string) string {
		switch {
		case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
			strings.HasPrefix(fn, "internal/runtime/"):
			return "runtime"
		case strings.HasPrefix(fn, "coschedsim/internal/"):
			pkg := strings.TrimPrefix(fn, "coschedsim/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if known[pkg] {
				return pkg
			}
			return "other"
		}
		return ""
	}

	weight := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := "other"
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if l := layerOf(p.strings[p.functions[fn]]); l != "" {
					layer = l
					break frames
				}
			}
		}
		weight[layer] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, l := range profiledLayers {
		shares[l] = ratio(float64(weight[l]), float64(total))
	}
	return shares, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name's string table index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	value     int64    // the last sample value: CPU nanoseconds
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, sub)
				case 2:
					if vals := appendVarints(nil, v, sub); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v carries a
// varint field's value, msg a length-delimited field's bytes.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (msg) or
// not (v).
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}
