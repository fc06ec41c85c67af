// Package snapshot implements the persistent dyDG image: a relocatable,
// checksummed, versioned on-disk file holding a recording's OPT graph and,
// optionally, its FP graph — columnar edge arrays, sealed label blocks,
// the static tables their loaders rebuild from, and the trace's segment
// summaries — laid out for a single sequential read. The façade's cache
// writes OPT alone; FP is rebuilt on demand by re-running the program.
//
// Loading is one os.ReadFile plus section decoding: sealed label blocks
// land directly in labelblock form with payloads aliasing the file
// buffer (no replay, no per-label decode), so load time is decoupled
// from trace length. On top of the format sits a content-addressed cache
// (Cache) keyed by program hash, input hash, format version, and the
// graph-shaping configuration fingerprint, which is what turns graph
// construction into an offline step: a process that finds its key in
// the cache serves queries without ever running the program.
//
// File layout (all integers little-endian; see docs/PERFORMANCE.md
// "Snapshot format" for the full diagram):
//
//	magic "DYSG" | version byte | uint32 section count
//	per section: uint32 id | uint64 offset | uint64 length | uint32 CRC-32
//	section payloads (meta, segments, optional FP image, OPT image)
//
// Offsets are absolute file offsets; each section is independently
// checksummed (IEEE CRC-32), so a bit flip anywhere fails classified
// (never a misparse, never a silent wrong slice) and the caller falls
// back to a fresh build.
package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"

	"dynslice/internal/ir"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/labelblock"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// Magic heads every snapshot file.
var Magic = [4]byte{'D', 'Y', 'S', 'G'}

// Version is the snapshot format version; it participates in the cache
// key, so a format bump makes every old cache entry a clean miss rather
// than a decode error.
const Version byte = 4

// Section ids.
const (
	secMeta uint32 = 1 + iota
	secSegs
	secFP
	secOPT
)

// Error classes beyond the labelblock set.
const (
	ClassBadChecksum = "bad_checksum" // a section's CRC does not match
	ClassBadSection  = "bad_section"  // the section table is malformed or incomplete
	ClassKeyMismatch = "key_mismatch" // the file's key is not the requested key
)

// Classify maps a snapshot read error to its telemetry class: one of the
// labelblock corruption classes, a snapshot-level class, or "io" for
// filesystem trouble. Returns "" for nil.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	var ce *labelblock.CorruptError
	if errors.As(err, &ce) {
		return ce.Class
	}
	return "io"
}

// Image is the deserialized content of a snapshot: everything a
// Recording needs to answer OPT queries without re-running the program.
// LP is the exception — it reads the trace file itself, which a snapshot
// deliberately does not carry.
type Image struct {
	Output   []int64
	Steps    int64
	Return   int64
	Criteria []int64
	Segs     []*trace.Segment
	FP       *fp.Graph // nil when the image carries no FP section
	OPT      *opt.Graph

	// buf pins the file buffer the graphs' sealed blocks alias.
	buf []byte
}

const dirEntrySize = 4 + 8 + 8 + 4 // id, offset, length, crc

// Write serializes img under key to path, atomically (temp file +
// rename, via the shared telemetry helper). The graphs must be
// finalized/frozen; the FP section is written only when img.FP is set.
// Returns the file size in bytes.
func Write(path string, key Key, img *Image) (int64, error) {
	meta := appendMeta(nil, key, img)
	segs := trace.AppendSegments(nil, img.Segs)
	optSec, err := img.OPT.AppendSnapshot(nil)
	if err != nil {
		return 0, err
	}
	type section struct {
		id      uint32
		payload []byte
	}
	sections := []section{{secMeta, meta}, {secSegs, segs}}
	if img.FP != nil {
		sections = append(sections, section{secFP, img.FP.AppendSnapshot(nil)})
	}
	sections = append(sections, section{secOPT, optSec})
	header := len(Magic) + 1 + 4 + len(sections)*dirEntrySize
	var total int64
	err = telemetry.WriteFileAtomic(path, func(w io.Writer) error {
		hdr := make([]byte, 0, header)
		hdr = append(hdr, Magic[:]...)
		hdr = append(hdr, Version)
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(sections)))
		off := uint64(header)
		for _, s := range sections {
			hdr = binary.LittleEndian.AppendUint32(hdr, s.id)
			hdr = binary.LittleEndian.AppendUint64(hdr, off)
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.payload)))
			hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(s.payload))
			off += uint64(len(s.payload))
		}
		total = int64(off)
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		for _, s := range sections {
			if _, err := w.Write(s.payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// Read loads a snapshot in one sequential read and decodes it (Decode).
func Read(path string, p *ir.Program, key Key) (*Image, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(buf, p, key)
}

// Decode reconstructs a snapshot's graphs against p from the file bytes
// in buf, which the graphs' sealed blocks go on aliasing. The file's key
// must equal the requested key (the content-addressed cache makes that a
// tautology; explicit -snapshot file paths are where it earns its keep).
// FP is loaded when the file has an FP section and left nil otherwise.
// Every failure is a classified *labelblock.CorruptError and never a
// panic: corrupt files are for the caller to fall back from, not to crash
// on.
func Decode(buf []byte, p *ir.Program, key Key) (*Image, error) {
	header := len(Magic) + 1 + 4
	if len(buf) < header {
		return nil, labelblock.Corrupt(labelblock.ClassTruncated, "snapshot: %d-byte file", len(buf))
	}
	if [4]byte(buf[:4]) != Magic {
		return nil, labelblock.Corrupt(labelblock.ClassBadMagic, "snapshot: file starts %q, want %q", buf[:4], Magic[:])
	}
	if buf[4] != Version {
		return nil, labelblock.Corrupt(labelblock.ClassBadVersion, "snapshot: format version %d, want %d", buf[4], Version)
	}
	nSec := binary.LittleEndian.Uint32(buf[5:9])
	if nSec > 64 {
		return nil, labelblock.Corrupt(ClassBadSection, "snapshot: %d sections", nSec)
	}
	if len(buf) < header+int(nSec)*dirEntrySize {
		return nil, labelblock.Corrupt(labelblock.ClassTruncated, "snapshot: file ends inside section table")
	}
	payload := map[uint32][]byte{}
	for i := 0; i < int(nSec); i++ {
		e := buf[header+i*dirEntrySize:]
		id := binary.LittleEndian.Uint32(e[0:4])
		off := binary.LittleEndian.Uint64(e[4:12])
		length := binary.LittleEndian.Uint64(e[12:20])
		sum := binary.LittleEndian.Uint32(e[20:24])
		if off > uint64(len(buf)) || length > uint64(len(buf))-off {
			return nil, labelblock.Corrupt(labelblock.ClassTruncated,
				"snapshot: section %d spans [%d, %d) of a %d-byte file", id, off, off+length, len(buf))
		}
		data := buf[off : off+length : off+length]
		if crc32.ChecksumIEEE(data) != sum {
			return nil, labelblock.Corrupt(ClassBadChecksum, "snapshot: section %d checksum mismatch", id)
		}
		if _, dup := payload[id]; dup {
			return nil, labelblock.Corrupt(ClassBadSection, "snapshot: duplicate section %d", id)
		}
		payload[id] = data
	}
	for _, id := range []uint32{secMeta, secSegs, secOPT} {
		if _, ok := payload[id]; !ok {
			return nil, labelblock.Corrupt(ClassBadSection, "snapshot: section %d missing", id)
		}
	}

	img := &Image{buf: buf}
	if err := img.decodeMeta(payload[secMeta], key); err != nil {
		return nil, err
	}
	segs, rest, err := trace.DecodeSegments(payload[secSegs], len(p.Blocks))
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, labelblock.Corrupt(ClassBadSection, "snapshot: %d trailing bytes in segment section", len(rest))
	}
	img.Segs = segs
	if sec, ok := payload[secFP]; ok {
		if img.FP, err = fp.LoadSnapshot(p, sec); err != nil {
			return nil, err
		}
	}
	if img.OPT, err = opt.LoadSnapshot(p, payload[secOPT]); err != nil {
		return nil, err
	}
	return img, nil
}

// appendMeta serializes the key and run metadata.
func appendMeta(dst []byte, key Key, img *Image) []byte {
	dst = append(dst, key.Program[:]...)
	dst = append(dst, key.Input[:]...)
	dst = append(dst, key.Config[:]...)
	dst = binary.AppendUvarint(dst, uint64(img.Steps))
	dst = binary.AppendUvarint(dst, zigzag(img.Return))
	dst = binary.AppendUvarint(dst, uint64(len(img.Output)))
	for _, v := range img.Output {
		dst = binary.AppendUvarint(dst, zigzag(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(img.Criteria)))
	for _, v := range img.Criteria {
		dst = binary.AppendUvarint(dst, zigzag(v))
	}
	return dst
}

func (img *Image) decodeMeta(data []byte, key Key) error {
	if len(data) < 96 {
		return labelblock.Corrupt(labelblock.ClassTruncated, "snapshot: %d-byte meta section", len(data))
	}
	var have Key
	copy(have.Program[:], data[0:32])
	copy(have.Input[:], data[32:64])
	copy(have.Config[:], data[64:96])
	if have != key {
		return labelblock.Corrupt(ClassKeyMismatch, "snapshot: file was written for a different (program, input, config)")
	}
	data = data[96:]
	steps, data, err := labelblock.DecodeUvarint(data, "snapshot: steps")
	if err != nil {
		return err
	}
	ret, data, err := labelblock.DecodeUvarint(data, "snapshot: return value")
	if err != nil {
		return err
	}
	img.Steps, img.Return = int64(steps), unzig(ret)
	if img.Output, data, err = decodeInt64s(data, "output"); err != nil {
		return err
	}
	if img.Criteria, data, err = decodeInt64s(data, "criteria"); err != nil {
		return err
	}
	if len(data) != 0 {
		return labelblock.Corrupt(ClassBadSection, "snapshot: %d trailing bytes in meta section", len(data))
	}
	return nil
}

func decodeInt64s(data []byte, what string) ([]int64, []byte, error) {
	n, data, err := labelblock.DecodeUvarint(data, "snapshot: "+what+" length")
	if err != nil {
		return nil, nil, err
	}
	if n > 1<<30 {
		return nil, nil, labelblock.Corrupt(labelblock.ClassBadBlock, "snapshot: implausible %s length %d", what, n)
	}
	if n > uint64(len(data)) {
		// Every value costs at least one byte; reject before allocating.
		return nil, nil, labelblock.Corrupt(labelblock.ClassTruncated, "snapshot: %s length %d exceeds remaining data", what, n)
	}
	if n == 0 {
		return nil, data, nil
	}
	out := make([]int64, n)
	for i := range out {
		var v uint64
		if v, data, err = labelblock.DecodeUvarint(data, "snapshot: "+what); err != nil {
			return nil, nil, err
		}
		out[i] = unzig(v)
	}
	return out, data, nil
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }
