package dataset

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// corrupt wraps a decode failure in ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// u16view returns data as a []uint16. On little-endian hosts with a
// 2-aligned base this is a zero-copy reinterpretation; otherwise the values
// are decoded into a fresh slice (correctness fallback — mmap bases are
// page-aligned and the writer 8-aligns blocks, so file-backed opens always
// take the view path on little-endian hardware).
func u16view(data []byte) []uint16 {
	n := len(data) / 2
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%2 == 0 {
		return unsafe.Slice((*uint16)(unsafe.Pointer(&data[0])), n)
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(data[2*i:])
	}
	return out
}

func u32view(data []byte) []uint32 {
	n := len(data) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&data[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	return out
}

func f64view(data []byte) []float64 {
	n := len(data) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// ReadSnapshot decodes a columnar snapshot held in memory, returning a
// zero-copy Dataset view over data. The caller must keep data immutable and
// alive for the Dataset's lifetime (Close does not release it). All
// structural invariants and every block checksum are verified here — a nil
// error means the views are safe for the engine to index without further
// bounds checks. Decode failures return ErrCorrupt (wrapped); malformed
// input never panics.
//
// The columns are typed views over data's byte regions. Aside from the
// id-offset table's n+1 uint32s (viewed, not copied, on little-endian
// hosts), decoding allocates only the schema and the slice headers, so for
// OpenSnapshot the engine scans the kernel's page cache directly.
func ReadSnapshot(data []byte) (*Dataset, error) {
	const headerLen = 16
	if len(data) < headerLen+snapFooterFixedLen+snapTrailerLen {
		return nil, corrupt("snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, corrupt("bad magic %q", data[:len(snapshotMagic)])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != snapshotVersion {
		return nil, corrupt("unsupported snapshot version %d", v)
	}
	tail := data[len(data)-snapTrailerLen:]
	if string(tail[4:]) != snapshotMagic {
		return nil, corrupt("bad tail magic %q", tail[4:])
	}
	footerLen := binary.LittleEndian.Uint32(tail[:4])
	if footerLen < snapFooterFixedLen || uint64(footerLen) > uint64(len(data)-headerLen-snapTrailerLen) {
		return nil, corrupt("absurd footer length %d", footerLen)
	}
	// footer = fixed part + block table + its own CRC; blocks live in
	// [headerLen, blocksEnd).
	blocksEnd := len(data) - snapTrailerLen - int(footerLen)
	footer := data[blocksEnd : len(data)-snapTrailerLen]
	body, sum := footer[:len(footer)-4], binary.LittleEndian.Uint32(footer[len(footer)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, corrupt("footer checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	n64 := binary.LittleEndian.Uint64(body[0:8])
	if n64 == 0 || n64 > snapMaxWorkers {
		return nil, corrupt("absurd worker count %d", n64)
	}
	n := int(n64)
	blockCount := binary.LittleEndian.Uint32(body[8:12])
	if uint64(len(body)) != 16+uint64(blockCount)*snapFooterEntryLen {
		return nil, corrupt("footer length %d does not match %d blocks", footerLen, blockCount)
	}

	// Block table: blocks must be 8-aligned, in file order, non-overlapping,
	// and confined to the region between header and footer. In-order
	// non-overlap is exactly what the sequential writer produces; requiring
	// it closes the aliasing attacks (two "columns" sharing bytes, a block
	// overlapping the footer) a hand-forged table could mount.
	blocks := make([]snapBlock, blockCount)
	prevEnd := uint64(headerLen)
	for i := range blocks {
		e := body[16+snapFooterEntryLen*i:]
		b := snapBlock{
			off: binary.LittleEndian.Uint64(e[0:8]),
			len: binary.LittleEndian.Uint64(e[8:16]),
			crc: binary.LittleEndian.Uint32(e[16:20]),
		}
		if b.off%8 != 0 {
			return nil, corrupt("block %d misaligned at offset %d", i, b.off)
		}
		if b.off < prevEnd || b.len > uint64(blocksEnd) || b.off > uint64(blocksEnd)-b.len {
			return nil, corrupt("block %d [%d,+%d) overlaps or escapes", i, b.off, b.len)
		}
		prevEnd = b.off + b.len
		blocks[i] = b
	}
	region := func(i int) ([]byte, error) {
		b := blocks[i]
		r := data[b.off : b.off+b.len]
		if got := crc32.ChecksumIEEE(r); got != b.crc {
			return nil, corrupt("block %d checksum mismatch (stored %08x, computed %08x)", i, b.crc, got)
		}
		return r, nil
	}

	if blocks[0].len > snapMaxSchemaLen {
		return nil, corrupt("absurd schema length %d", blocks[0].len)
	}
	schemaJSON, err := region(0)
	if err != nil {
		return nil, err
	}
	var bs binarySchema
	if err := json.Unmarshal(schemaJSON, &bs); err != nil {
		return nil, corrupt("schema json: %v", err)
	}
	schema := &Schema{Protected: bs.Protected, Observed: bs.Observed}
	if err := schema.Validate(); err != nil {
		return nil, corrupt("%v", err)
	}
	if want := snapshotBlockCount(schema); int(blockCount) != want {
		return nil, corrupt("schema wants %d blocks, snapshot has %d", want, blockCount)
	}

	ds := &Dataset{
		schema:       schema,
		n:            n,
		codes:        make([][]uint16, len(schema.Protected)),
		rawProtected: make([][]float64, len(schema.Protected)),
		observed:     make([][]float64, len(schema.Observed)),
	}

	sized := func(i int, want uint64, what string) ([]byte, error) {
		if blocks[i].len != want {
			return nil, corrupt("%s block is %d bytes, want %d", what, blocks[i].len, want)
		}
		return region(i)
	}
	offRaw, err := sized(1, 4*uint64(n+1), "id offset")
	if err != nil {
		return nil, err
	}
	ds.idOff = u32view(offRaw)
	if ds.idOff[0] != 0 {
		return nil, corrupt("id offsets start at %d", ds.idOff[0])
	}
	for i := 0; i < n; i++ {
		if ds.idOff[i+1] < ds.idOff[i] {
			return nil, corrupt("id offsets not monotone at %d", i)
		}
	}
	ds.idBytes, err = sized(2, uint64(ds.idOff[n]), "id bytes")
	if err != nil {
		return nil, err
	}

	for a, attr := range schema.Protected {
		raw, err := sized(3+2*a, 2*uint64(n), "codes")
		if err != nil {
			return nil, err
		}
		codes := u16view(raw)
		card := attr.Cardinality()
		for _, c := range codes {
			if int(c) >= card {
				return nil, corrupt("code %d out of range for %s", c, attr.Name)
			}
		}
		ds.codes[a] = codes
		fraw, err := sized(4+2*a, 8*uint64(n), "raw values")
		if err != nil {
			return nil, err
		}
		ds.rawProtected[a] = f64view(fraw)
	}
	for a := range schema.Observed {
		raw, err := sized(3+2*len(schema.Protected)+a, 8*uint64(n), "observed values")
		if err != nil {
			return nil, err
		}
		ds.observed[a] = f64view(raw)
	}
	return ds, nil
}

// OpenSnapshot maps the snapshot file at path and returns a Dataset whose
// columns are zero-copy views of the mapping — opening a multi-gigabyte
// snapshot costs pages, not heap. The Dataset owns the mapping: Close
// unmaps it and invalidates every view. On platforms without mmap the file
// is read into memory instead; behavior is identical, only the residency
// guarantee is weaker.
func OpenSnapshot(path string) (*Dataset, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open snapshot %s: %w", path, err)
	}
	ds, err := ReadSnapshot(data)
	if err != nil {
		closer()
		return nil, fmt.Errorf("dataset: open snapshot %s: %w", path, err)
	}
	ds.closer = closer
	return ds, nil
}
