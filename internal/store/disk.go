package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Disk segment layout (uvarint lengths, as internal/frame writes them;
// the scan reads them with its own loop, since it stops at the first
// tear and keeps the valid prefix, which a sticky frame reader does not
// model):
//
//	header  "MPD" version(1)
//	entry   uvarint(len key) | key | uvarint(len val) | val | crc32-LE
//
// The CRC (IEEE, little-endian) covers key+val. Segments are append-only:
// a Put always appends, so a duplicate key's old bytes become garbage
// that is reclaimed only when its whole segment is evicted. The store is
// bounded by total bytes; eviction drops the oldest segment file, which
// approximates LRU at segment granularity (old segments hold the
// longest-untouched writes).
//
// Crash safety comes from the scan on Open: each entry is either wholly
// intact (lengths parse, CRC matches) or it is skipped. A structurally
// torn tail — the usual result of dying mid-Put — is truncated away so
// the next append starts at a clean boundary.
const (
	diskMagic   = "MPD"
	diskVersion = 1

	// maxKeyLen / maxValLen bound allocations when scanning untrusted
	// bytes (the fuzzer feeds arbitrary segments through this path).
	maxKeyLen = 1 << 16
	maxValLen = 64 << 20

	// DefaultMaxBytes bounds the disk tier when the caller passes 0.
	DefaultMaxBytes = 256 << 20

	minSegBytes = 1 << 20
)

// Logf is the logging hook the disk tier reports corruption and eviction
// through. nil silences it.
type Logf func(format string, args ...any)

// Disk is the persistent tier: values serialised by a Codec into
// checksummed append-only segment files under one directory, indexed in
// memory by key. Construct with Open.
type Disk[V any] struct {
	dir     string
	maxSeg  int64
	maxTot  int64
	codec   Codec[V]
	logf    Logf
	mu      sync.Mutex
	segs    []*segment
	w       *os.File // append handle for segs[len(segs)-1]
	index   map[string]entryRef
	bytes   int64
	hits    int64
	misses  int64
	evicted int64
	closed  bool
}

type segment struct {
	seq  int
	path string
	f    *os.File // read handle
	size int64
}

type entryRef struct {
	seg  int // segment seq
	off  int64
	vlen int
}

// Open opens (or creates) a disk tier rooted at dir, bounded at maxBytes
// total (0 means DefaultMaxBytes). Existing segments are scanned and
// indexed; corrupt or torn entries are skipped and logged, never fatal.
func Open[V any](dir string, maxBytes int64, codec Codec[V], logf Logf) (*Disk[V], error) {
	if codec == nil {
		return nil, fmt.Errorf("store: Open requires a codec")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	maxSeg := maxBytes / 8
	if maxSeg < minSegBytes {
		maxSeg = minSegBytes
	}
	d := &Disk[V]{
		dir:    dir,
		maxSeg: maxSeg,
		maxTot: maxBytes,
		codec:  codec,
		logf:   logf,
		index:  make(map[string]entryRef),
	}
	if err := d.load(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *Disk[V]) warnf(format string, args ...any) {
	if d.logf != nil {
		d.logf(format, args...)
	}
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d", seq))
}

// load scans every segment in the directory, building the in-memory
// index. Later segments win duplicate keys (append order is write
// order). The highest-numbered segment becomes the append target.
func (d *Disk[V]) load() error {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var seqs []int
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, "seg-") || de.IsDir() {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimPrefix(name, "seg-"))
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		path := segPath(d.dir, seq)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if len(data) < len(diskMagic)+1 || string(data[:len(diskMagic)]) != diskMagic ||
			data[len(diskMagic)] != diskVersion {
			d.warnf("store: %s: bad segment header, removing", path)
			os.Remove(path)
			continue
		}
		validLen, skipped := ScanSegment(data, func(key string, off int64, vlen int) {
			d.index[key] = entryRef{seg: seq, off: off, vlen: vlen}
		})
		if skipped > 0 {
			d.warnf("store: %s: skipped %d corrupt entries", path, skipped)
		}
		if validLen < int64(len(data)) {
			d.warnf("store: %s: truncating torn tail at %d (was %d bytes)", path, validLen, len(data))
			if err := os.Truncate(path, validLen); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		d.segs = append(d.segs, &segment{seq: seq, path: path, f: f, size: validLen})
		d.bytes += validLen
	}
	if len(d.segs) == 0 {
		if err := d.newSegment(1); err != nil {
			return err
		}
	} else {
		last := d.segs[len(d.segs)-1]
		w, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		d.w = w
	}
	return nil
}

// newSegment creates and activates an empty segment with the given seq.
func (d *Disk[V]) newSegment(seq int) error {
	path := segPath(d.dir, seq)
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	hdr := append([]byte(diskMagic), diskVersion)
	if _, err := w.Write(hdr); err != nil {
		w.Close()
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		w.Close()
		return fmt.Errorf("store: %w", err)
	}
	if d.w != nil {
		d.w.Close()
	}
	d.w = w
	d.segs = append(d.segs, &segment{seq: seq, path: path, f: f, size: int64(len(hdr))})
	d.bytes += int64(len(hdr))
	return nil
}

// ScanSegment walks the entry stream of a segment image (header
// included), invoking fn for each intact entry with the key and the
// value's offset/length within data. CRC-mismatched entries with intact
// framing are skipped (counted in skipped) and the scan continues; at the
// first structural tear the scan stops and returns the length of the
// structurally valid prefix. Exported for the fuzz harness.
func ScanSegment(data []byte, fn func(key string, off int64, vlen int)) (validLen int64, skipped int) {
	pos := len(diskMagic) + 1
	if len(data) < pos {
		return int64(len(data)), 0
	}
	for pos < len(data) {
		entryStart := pos
		klen, n := binary.Uvarint(data[pos:])
		if n <= 0 || klen > maxKeyLen {
			return int64(entryStart), skipped
		}
		pos += n
		if int64(len(data)-pos) < int64(klen) {
			return int64(entryStart), skipped
		}
		key := data[pos : pos+int(klen)]
		pos += int(klen)
		vlen, n := binary.Uvarint(data[pos:])
		if n <= 0 || vlen > maxValLen {
			return int64(entryStart), skipped
		}
		pos += n
		if int64(len(data)-pos) < int64(vlen)+4 {
			return int64(entryStart), skipped
		}
		val := data[pos : pos+int(vlen)]
		valOff := pos
		pos += int(vlen)
		want := binary.LittleEndian.Uint32(data[pos : pos+4])
		pos += 4
		crc := crc32.ChecksumIEEE(key)
		crc = crc32.Update(crc, crc32.IEEETable, val)
		if crc != want {
			skipped++
			continue
		}
		if fn != nil {
			fn(string(key), int64(valOff), int(vlen))
		}
	}
	return int64(pos), skipped
}

// Get implements Store.
func (d *Disk[V]) Get(key string) (V, bool) {
	var zero V
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return zero, false
	}
	ref, ok := d.index[key]
	if !ok {
		d.misses++
		return zero, false
	}
	var seg *segment
	for _, s := range d.segs {
		if s.seq == ref.seg {
			seg = s
			break
		}
	}
	if seg == nil {
		delete(d.index, key)
		d.misses++
		return zero, false
	}
	buf := make([]byte, ref.vlen)
	if _, err := seg.f.ReadAt(buf, ref.off); err != nil {
		d.warnf("store: %s: read at %d: %v", seg.path, ref.off, err)
		delete(d.index, key)
		d.misses++
		return zero, false
	}
	v, err := d.codec.Decode(buf)
	if err != nil {
		d.warnf("store: %s: decode %q: %v", seg.path, key, err)
		delete(d.index, key)
		d.misses++
		return zero, false
	}
	d.hits++
	return v, true
}

// Put implements Store. The entry is written with a single append so a
// crash leaves at worst a torn tail for the next Open to truncate.
func (d *Disk[V]) Put(key string, v V) {
	if len(key) == 0 || len(key) > maxKeyLen {
		return
	}
	val, err := d.codec.Append(nil, v)
	if err != nil {
		d.warnf("store: encode %q: %v", key, err)
		return
	}
	if len(val) > maxValLen {
		d.warnf("store: %q: value too large (%d bytes), not persisted", key, len(val))
		return
	}
	buf := make([]byte, 0, len(key)+len(val)+binary.MaxVarintLen64*2+4)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	valOff := len(buf)
	buf = append(buf, val...)
	crc := crc32.ChecksumIEEE([]byte(key))
	crc = crc32.Update(crc, crc32.IEEETable, val)
	buf = binary.LittleEndian.AppendUint32(buf, crc)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	active := d.segs[len(d.segs)-1]
	if active.size >= d.maxSeg {
		if err := d.newSegment(active.seq + 1); err != nil {
			d.warnf("store: rotate: %v", err)
			return
		}
		active = d.segs[len(d.segs)-1]
	}
	if _, err := d.w.Write(buf); err != nil {
		d.warnf("store: append: %v", err)
		return
	}
	d.index[key] = entryRef{seg: active.seq, off: active.size + int64(valOff), vlen: len(val)}
	active.size += int64(len(buf))
	d.bytes += int64(len(buf))
	d.evict()
}

// evict drops whole oldest segments (never the active one) until the
// store fits its byte bound. Caller holds d.mu.
func (d *Disk[V]) evict() {
	for d.bytes > d.maxTot && len(d.segs) > 1 {
		old := d.segs[0]
		d.segs = d.segs[1:]
		for key, ref := range d.index {
			if ref.seg == old.seq {
				delete(d.index, key)
				d.evicted++
			}
		}
		d.bytes -= old.size
		old.f.Close()
		if err := os.Remove(old.path); err != nil {
			d.warnf("store: evict %s: %v", old.path, err)
		} else {
			d.warnf("store: evicted segment %s (%d bytes)", old.path, old.size)
		}
	}
}

// Stats implements Store.
func (d *Disk[V]) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Hits:      d.hits,
		Misses:    d.misses,
		Evictions: d.evicted,
		Entries:   len(d.index),
		Bytes:     d.bytes,
	}
}

// Len implements Store.
func (d *Disk[V]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Reset implements Store: every segment is deleted and a fresh one
// started. Counters are zeroed.
func (d *Disk[V]) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	for _, s := range d.segs {
		s.f.Close()
		os.Remove(s.path)
	}
	if d.w != nil {
		d.w.Close()
		d.w = nil
	}
	d.segs = nil
	d.index = make(map[string]entryRef)
	d.bytes = 0
	d.hits, d.misses, d.evicted = 0, 0, 0
	if err := d.newSegment(1); err != nil {
		d.warnf("store: reset: %v", err)
	}
}

// Close implements Store.
func (d *Disk[V]) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	if d.w != nil {
		if err := d.w.Close(); err != nil {
			first = err
		}
		d.w = nil
	}
	for _, s := range d.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Dir reports the store's root directory (diagnostic).
func (d *Disk[V]) Dir() string { return d.dir }
