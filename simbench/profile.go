package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// modulePrefix is the import-path prefix of the program's modules.
const modulePrefix = "baldur/internal/"

// foldProfile reads a gzipped pprof CPU profile and returns, per module, the
// number of samples whose innermost baldur/internal/<module> frame is in
// that module; samples with no such frame count as "runtime". Inlined
// frames count as the function they were written in, so sort.Slice called
// from dropmodel counts as dropmodel.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	// Module of each location: its innermost line in a program module.
	locModule := make(map[uint64]string, len(prof.locations))
	for id, fns := range prof.locations {
		for _, fn := range fns {
			if m := moduleOf(prof.strings[prof.functions[fn]]); m != "" {
				locModule[id] = m
				break
			}
		}
	}
	fold := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		m := "runtime"
		for _, loc := range s.locations {
			if lm, ok := locModule[loc]; ok {
				m = lm
				break
			}
		}
		fold[m] += s.count
		total += s.count
	}
	return fold, total, nil
}

// moduleOf returns the module of a fully qualified function name, or "" for
// functions outside the program's modules.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// profile holds the parts of profile.proto the fold needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	count     int64    // first sample value: the number of samples
}

// Field numbers of profile.proto.
const (
	profSample       = 2
	profLocation     = 4
	profFunction     = 5
	profStringTable  = 6
	sampleLocationID = 1
	sampleValue      = 2
	locationID       = 1
	locationLine     = 4
	lineFunctionID   = 1
	functionID       = 1
	functionName     = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case profSample:
			var s sample
			var values []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case sampleLocationID:
					return appendVarints(&s.locations, v, d)
				case sampleValue:
					return appendVarints(&values, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(d, func(f int, v uint64, _ []byte) error {
						if f == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", name)
		}
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint value, data a length-delimited payload.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", field)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", field)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", field)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (data).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		*dst, data = append(*dst, x), data[n:]
	}
	return nil
}
