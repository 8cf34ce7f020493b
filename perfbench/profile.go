package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets is a CPU profile reduced to the per-layer figures: self CPU
// per package (the leaf frame's package) plus two cumulative buckets.
type cpuBuckets struct {
	self       map[string]float64 // package -> seconds
	gc         float64            // seconds under the runtime's GC and allocator
	invalidate float64            // seconds under page invalidation in gpu and mmu
	total      float64
}

// gcRoots are the runtime entry points of garbage collection and
// allocation: a sample with one of them on its stack is GC/malloc work.
var gcRoots = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.growslice", "runtime.newobject",
}

// invalidateRoots are the page-invalidation functions of the gpu and mmu
// layers, run on every eviction.
var invalidateRoots = []string{
	"uvmsim/internal/gpu.(*Cluster).InvalidatePage",
	"uvmsim/internal/gpu.(*Cache).InvalidatePage",
	"uvmsim/internal/mmu.(*SetLRU).InvalidateRange",
	"uvmsim/internal/mmu.(*SetLRU).Invalidate",
}

func newBuckets() *cpuBuckets { return &cpuBuckets{self: make(map[string]float64)} }

// add folds one gzipped runtime/pprof CPU profile into b.
func (b *cpuBuckets) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		secs := float64(s.nanos) / 1e9
		b.total += secs
		var frames []string // innermost first
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		if len(frames) == 0 {
			continue
		}
		b.self[pkgOf(frames[0])] += secs
		if anyFrame(frames, gcRoots) {
			b.gc += secs
		}
		if anyFrame(frames, invalidateRoots) {
			b.invalidate += secs
		}
	}
	return nil
}

func anyFrame(frames, roots []string) bool {
	for _, f := range frames {
		for _, r := range roots {
			if f == r {
				return true
			}
		}
	}
	return false
}

// pkgOf maps a symbol such as "uvmsim/internal/mmu.(*SetLRU).idxGet" to
// its package's last path element ("mmu").
func pkgOf(sym string) string {
	if i := strings.LastIndex(sym, "/"); i >= 0 {
		sym = sym[i+1:]
	}
	if i := strings.Index(sym, "."); i >= 0 {
		sym = sym[:i]
	}
	return sym
}

// profile is the part of a pprof profile.proto message the buckets need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64
	nanos int64
}

// parseProfile decodes the fields of profile.proto used here: sample (2),
// location (4), function (5) and string_table (6).
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := eachField(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s sample
			var values []int64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, m)
				case 2:
					for _, x := range appendPacked(nil, v, m) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) < 2 {
				return fmt.Errorf("profile: sample has %d values, want samples and cpu", len(values))
			}
			s.nanos = values[1]
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(p.strings))
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field's values, given either as
// one varint (v, msg nil) or packed into msg.
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or, for length-delimited fields, its bytes.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", field)
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
