package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer. Spans of one operation share Op;
// Parent 0 marks the operation's root span.
type span struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, which is how untraced runs pay for no tracing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) begin(op int64, parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(processStart))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(processStart))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(op int64, parent int32, name string, fn func() error) error {
	id := t.begin(op, parent, name)
	err := fn()
	t.end(id)
	return err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profile is a CPU profile the process takes of itself.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// cpuFold is CPU nanoseconds by pprof "class" label, then by layer.
type cpuFold map[string]map[string]float64

func (p *profile) stop() (cpuFold, error) {
	pprof.StopCPUProfile()
	return foldProfile(bytes.NewReader(p.buf.Bytes()))
}

const internalPrefix = "rcmp/internal/"

// layerOf charges a function to its rcmp/internal package, or "" for code
// outside the module's layers.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// foldProfile decodes a gzipped pprof profile and charges each sample's
// CPU time to the innermost rcmp/internal frame on its stack, or to
// "other" when there is none. Only the fields the fold needs are decoded.
func foldProfile(r io.Reader) (cpuFold, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, value string indexes
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcName = map[uint64]int64{}    // function -> name string index
		strs     []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	fold := cpuFold{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		cls := ""
		for _, kv := range s.labels {
			if str(kv[0]) == "class" {
				cls = str(kv[1])
			}
		}
		layer := "other"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if l := layerOf(str(funcName[fn])); l != "" {
					layer = l
					break stack
				}
			}
		}
		if fold[cls] == nil {
			fold[cls] = map[string]float64{}
		}
		fold[cls][layer] += float64(s.values[1]) // CPU nanoseconds
	}
	return fold, nil
}

// total sums a fold over classes, by layer.
func (f cpuFold) total() map[string]float64 {
	out := map[string]float64{}
	for _, byLayer := range f {
		for l, ns := range byLayer {
			out[l] += ns
		}
	}
	return out
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
