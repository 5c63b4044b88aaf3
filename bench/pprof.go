package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// frame is one function activation in a profiled stack.
type frame struct {
	fn, file string
}

// stackSample is one distinct stack of a CPU profile with its sample count.
type stackSample struct {
	count  int64
	frames []frame // leaf first; inlined calls expanded innermost first
}

// decodeProfile reads the gzipped protocol-buffer profile that
// runtime/pprof writes, keeping only what layer attribution needs. The
// decoder is written against profile.proto directly so the benchmark adds
// no module dependency.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []uint64
	}
	type function struct{ name, file uint64 }
	var (
		samples   []sample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]function{}
		strs      []string
	)
	top := pbReader{raw}
	for !top.done() {
		field, wire, err := top.key()
		if err != nil {
			return nil, err
		}
		if wire != pbBytes {
			if err := top.skip(wire); err != nil {
				return nil, err
			}
			continue
		}
		msg, err := top.bytes()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample{location_id = 1, value = 2}
			var s sample
			err = eachField(msg, func(f int, r *pbReader, wire int) error {
				switch f {
				case 1:
					return r.uints(wire, &s.locs)
				case 2:
					return r.uints(wire, &s.values)
				}
				return r.skip(wire)
			})
			samples = append(samples, s)
		case 4: // Location{id = 1, line = 4 {function_id = 1}}
			var id uint64
			var fns []uint64
			err = eachField(msg, func(f int, r *pbReader, wire int) error {
				switch f {
				case 1:
					return r.uint(wire, &id)
				case 4:
					line, err := r.bytes()
					if err != nil {
						return err
					}
					return eachField(line, func(f int, r *pbReader, wire int) error {
						if f == 1 {
							var fn uint64
							if err := r.uint(wire, &fn); err != nil {
								return err
							}
							fns = append(fns, fn)
							return nil
						}
						return r.skip(wire)
					})
				}
				return r.skip(wire)
			})
			locations[id] = fns
		case 5: // Function{id = 1, name = 2, filename = 4}
			var id uint64
			var fn function
			err = eachField(msg, func(f int, r *pbReader, wire int) error {
				switch f {
				case 1:
					return r.uint(wire, &id)
				case 2:
					return r.uint(wire, &fn.name)
				case 4:
					return r.uint(wire, &fn.file)
				}
				return r.skip(wire)
			})
			functions[id] = fn
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		if err != nil {
			return nil, err
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				fn := functions[fid]
				st.frames = append(st.frames, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Protocol-buffer wire types used by profile.proto.
const (
	pbVarint = 0
	pbI64    = 1
	pbBytes  = 2
	pbI32    = 5
)

var errTruncated = errors.New("profile: truncated protocol buffer")

// pbReader walks one encoded protocol-buffer message.
type pbReader struct{ b []byte }

func (r *pbReader) done() bool { return len(r.b) == 0 }

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

func (r *pbReader) key() (field, wire int, err error) {
	k, err := r.varint()
	return int(k >> 3), int(k & 7), err
}

func (r *pbReader) bytes() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, errTruncated
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b, nil
}

func (r *pbReader) skip(wire int) error {
	var n int
	switch wire {
	case pbVarint:
		_, err := r.varint()
		return err
	case pbBytes:
		_, err := r.bytes()
		return err
	case pbI64:
		n = 8
	case pbI32:
		n = 4
	default:
		return fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	if n > len(r.b) {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// uint reads a scalar integer field.
func (r *pbReader) uint(wire int, dst *uint64) error {
	if wire != pbVarint {
		return r.skip(wire)
	}
	v, err := r.varint()
	*dst = v
	return err
}

// uints appends a repeated integer field, packed or not: runtime/pprof
// packs only lists longer than two.
func (r *pbReader) uints(wire int, dst *[]uint64) error {
	if wire == pbVarint {
		v, err := r.varint()
		*dst = append(*dst, v)
		return err
	}
	if wire != pbBytes {
		return r.skip(wire)
	}
	packed, err := r.bytes()
	if err != nil {
		return err
	}
	pr := pbReader{packed}
	for !pr.done() {
		v, err := pr.varint()
		if err != nil {
			return err
		}
		*dst = append(*dst, v)
	}
	return nil
}

// eachField calls fn for every field of msg; fn must consume the field's
// payload from r.
func eachField(msg []byte, fn func(field int, r *pbReader, wire int) error) error {
	r := pbReader{msg}
	for !r.done() {
		field, wire, err := r.key()
		if err != nil {
			return err
		}
		if err := fn(field, &r, wire); err != nil {
			return err
		}
	}
	return nil
}
