package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, keeping only what cpuShares needs: each sample's count and
// stack, and the function name of every (inlined) frame.

type profSample struct {
	count int64
	stack []uint64 // location ids, leaf first
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

var errProto = errors.New("malformed profile")

// protoFields calls fn for every field of one message. For varint fields v
// holds the value; for length-delimited fields b holds the bytes.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints decodes a repeated integer field in either encoding: one value
// (b == nil) or a packed run.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = protoFields(raw, func(field int, _ uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			values := 0
			err := protoFields(b, func(f int, v uint64, bb []byte) error {
				xs, err := varints(v, bb)
				if err != nil {
					return err
				}
				switch f {
				case 1:
					s.stack = append(s.stack, xs...)
				case 2:
					if values == 0 && len(xs) > 0 {
						s.count = int64(xs[0]) // sample_type 0 is the sample count
					}
					values += len(xs)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := protoFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(bb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// funcPackage returns the import path of a fully qualified Go function
// name, e.g. "drbw/internal/cache" for
// "drbw/internal/cache.(*Hierarchy).AccessOn".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// innermostPackage walks a stack from the leaf outwards, inlined frames
// included, and returns the package of the first function whose package
// path starts with prefix ("" when none does).
func (p *profile) innermostPackage(stack []uint64, prefix string) string {
	for _, loc := range stack {
		for _, fid := range p.locations[loc] {
			idx := p.functions[fid]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			if pkg := funcPackage(p.strings[idx]); pkg == prefix || strings.HasPrefix(pkg, prefix+"/") {
				return pkg
			}
		}
	}
	return ""
}
