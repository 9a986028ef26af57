package dataset

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Columnar snapshot format: the one form datasets are stored in. It lays
// every column out as one contiguous, 8-byte-aligned, fixed-width block
// so a reader can map the file and hand the engine direct views of the
// mapped bytes — no decode pass, no copy, RAM cost independent of
// dataset size.
//
// Layout (all integers little-endian):
//
//	header   magic [8]byte "FRSNAP2\n", version uint32, flags uint32 (0)
//	blocks   each padded to start on an 8-byte boundary:
//	           0            schema JSON
//	           1            id offsets []uint32, n+1 entries
//	           2            id bytes (ids[i] = bytes[off[i]:off[i+1]])
//	           3+2a, 4+2a   protected a: codes []uint16, raw []float64
//	           3+2P+a       observed a: values []float64
//	footer   n uint64, blockCount uint32, pad uint32,
//	         per block {off uint64, len uint64, crc32 uint32, pad uint32},
//	         crc32 of the preceding footer bytes
//	trailer  footerLen uint32, tail magic [8]byte "FRSNAP2\n"
//
// The file is parsed from the end: the fixed-size trailer locates the
// footer, the footer locates and checksums every block. That makes the
// format appendable to streams (the writer never seeks) while still giving
// readers random access. Every block CRC is verified once at open; the
// mapped views handed out afterwards are immutable by contract.
const (
	snapshotMagic   = "FRSNAP2\n"
	snapshotVersion = 1

	// snapTrailerLen is the fixed byte length of the trailer.
	snapTrailerLen = 4 + len(snapshotMagic)
	// snapFooterEntryLen is the byte length of one block-table entry.
	snapFooterEntryLen = 24
	// snapFooterFixedLen is the byte length of the footer before the block
	// table (n, blockCount, pad) plus the trailing footer CRC.
	snapFooterFixedLen = 16 + 4

	// snapMaxSchemaLen bounds the schema JSON block; real schemas are a few
	// hundred bytes.
	snapMaxSchemaLen = 1 << 20
	// snapMaxWorkers bounds the worker count a footer may claim.
	snapMaxWorkers = 1 << 28
)

// ErrCorrupt is returned when a snapshot fails its integrity checks.
var ErrCorrupt = errors.New("dataset: corrupt snapshot")

// binarySchema is the schema block's JSON.
type binarySchema struct {
	Protected []Attribute `json:"protected"`
	Observed  []Attribute `json:"observed"`
}

// snapshotBlockCount returns the number of blocks a snapshot of the schema
// carries: schema JSON, id offsets, id bytes, codes+raw per protected
// attribute, values per observed attribute.
func snapshotBlockCount(s *Schema) int {
	return 3 + 2*len(s.Protected) + len(s.Observed)
}

// hostLittleEndian reports whether the host stores integers little-endian —
// the precondition for viewing mapped snapshot bytes as typed slices
// without a decode copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// snapshotWriter tracks offsets and per-block checksums while streaming
// blocks to an io.Writer without seeking.
type snapshotWriter struct {
	w   *bufio.Writer
	off uint64
	tab []snapBlock
	err error
}

// snapBlock is one entry of the footer's block table.
type snapBlock struct {
	off uint64
	len uint64
	crc uint32
}

func (sw *snapshotWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(p)
	sw.off += uint64(len(p))
}

var snapPad [8]byte

// block writes one block: pads to 8-byte alignment, then streams the bytes
// produced by emit while recording offset, length and CRC32.
func (sw *snapshotWriter) block(emit func(w io.Writer) error) {
	if sw.err != nil {
		return
	}
	if pad := (8 - sw.off%8) % 8; pad != 0 {
		sw.write(snapPad[:pad])
	}
	start := sw.off
	crc := crc32.NewIEEE()
	cw := &countWriter{w: io.MultiWriter(sw.w, crc)}
	if err := emit(cw); err != nil {
		sw.err = err
		return
	}
	sw.off += cw.n
	sw.tab = append(sw.tab, snapBlock{off: start, len: cw.n, crc: crc.Sum32()})
}

type countWriter struct {
	w io.Writer
	n uint64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// writeU16LE streams v little-endian. On little-endian hosts the slice's
// bytes are written directly; otherwise values are encoded through a small
// buffer.
func writeU16LE(w io.Writer, v []uint16) error {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 2*len(v)))
		return err
	}
	var buf [2]byte
	for _, x := range v {
		binary.LittleEndian.PutUint16(buf[:], x)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeU32LE(w io.Writer, v []uint32) error {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
		return err
	}
	var buf [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(buf[:], x)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeF64LE(w io.Writer, v []float64) error {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
		return err
	}
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot serializes the dataset in the columnar snapshot format.
// The write is a single sequential stream (no seeking), so it works on
// sockets and pipes as well as files; datasets opened with OpenSnapshot
// re-serialize from their mapped views without materializing copies beyond
// the writer's buffer.
func (d *Dataset) WriteSnapshot(w io.Writer) error {
	sw := &snapshotWriter{w: bufio.NewWriterSize(w, 1<<16)}

	var hdr [16]byte
	copy(hdr[:8], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], snapshotVersion)
	sw.write(hdr[:])

	schemaJSON, err := json.Marshal(binarySchema{Protected: d.schema.Protected, Observed: d.schema.Observed})
	if err != nil {
		return fmt.Errorf("dataset: encode schema: %w", err)
	}
	sw.block(func(w io.Writer) error {
		_, err := w.Write(schemaJSON)
		return err
	})

	// id offsets then id bytes. Offsets are built in one pass; the byte
	// block streams each id directly so the ids are never concatenated in
	// memory.
	idOff := make([]uint32, d.n+1)
	total := uint64(0)
	for i := 0; i < d.n; i++ {
		total += uint64(len(d.ID(i)))
		if total > math.MaxUint32 {
			return fmt.Errorf("dataset: worker ids exceed %d bytes total", uint32(math.MaxUint32))
		}
		idOff[i+1] = uint32(total)
	}
	sw.block(func(w io.Writer) error { return writeU32LE(w, idOff) })
	sw.block(func(w io.Writer) error {
		for i := 0; i < d.n; i++ {
			if _, err := io.WriteString(w, d.ID(i)); err != nil {
				return err
			}
		}
		return nil
	})

	for a := range d.schema.Protected {
		codes, raw := d.codes[a], d.rawProtected[a]
		sw.block(func(w io.Writer) error { return writeU16LE(w, codes) })
		sw.block(func(w io.Writer) error { return writeF64LE(w, raw) })
	}
	for a := range d.schema.Observed {
		col := d.observed[a]
		sw.block(func(w io.Writer) error { return writeF64LE(w, col) })
	}
	if sw.err != nil {
		return sw.err
	}

	footer := make([]byte, 16+snapFooterEntryLen*len(sw.tab))
	binary.LittleEndian.PutUint64(footer[0:8], uint64(d.n))
	binary.LittleEndian.PutUint32(footer[8:12], uint32(len(sw.tab)))
	for i, b := range sw.tab {
		e := footer[16+snapFooterEntryLen*i:]
		binary.LittleEndian.PutUint64(e[0:8], b.off)
		binary.LittleEndian.PutUint64(e[8:16], b.len)
		binary.LittleEndian.PutUint32(e[16:20], b.crc)
	}
	sw.write(footer)
	var tail [4 + 4 + len(snapshotMagic)]byte
	binary.LittleEndian.PutUint32(tail[0:4], crc32.ChecksumIEEE(footer))
	binary.LittleEndian.PutUint32(tail[4:8], uint32(len(footer)+4))
	copy(tail[8:], snapshotMagic)
	sw.write(tail[:])
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

// Digest returns the SHA-256 of the dataset's WriteSnapshot stream: a
// content address under which two datasets are equal exactly when their
// contents are, whatever backs them. The columnar snapshot is the one
// canonical encoding — the writer is deterministic, ReadSnapshot inverts
// it, and it re-serializes byte-identically from heap and mmap backings —
// so a dataset built in memory, decoded from CSV, mapped from a
// snapshot, or produced by Subset digests by its contents alone.
//
// The first call pays one pass over the columns; the result is cached on
// the immutable Dataset, so later calls cost O(1) in the worker count.
// Digest is safe for concurrent use.
//
// Digest covers every byte or panics: WriteSnapshot fails only for a
// dataset no snapshot can hold — worker ids totalling more than 4 GiB, or
// a numeric attribute bound of ±Inf, which its schema JSON cannot encode
// — so it never fails for a dataset opened with OpenSnapshot. Digest never
// returns the hash of a partial stream.
func (d *Dataset) Digest() [sha256.Size]byte {
	d.digestOnce.Do(func() {
		h := sha256.New()
		if d.digestErr = d.WriteSnapshot(h); d.digestErr == nil {
			h.Sum(d.digest[:0])
		}
	})
	if d.digestErr != nil {
		panic(fmt.Sprintf("dataset: digest: %v", d.digestErr))
	}
	return d.digest
}

// SeedDigest makes sum the dataset's Digest unless Digest already ran: a
// digest stored beside the content (a snapshot ref) spares the first call
// its pass over the columns. The caller vouches that sum is this content's
// digest.
func (d *Dataset) SeedDigest(sum [sha256.Size]byte) {
	d.digestOnce.Do(func() { d.digest = sum })
}
