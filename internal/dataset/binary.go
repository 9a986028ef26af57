package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Legacy binary format, read-only. Older stores kept datasets in this form
// as WAL values; the server's boot migration reads them once into columnar
// snapshots (snapshot.go), the one format written today. The form is
// self-describing (the schema travels with the data) and integrity-checked:
// a trailing CRC32 covers everything after the magic, so truncation and
// bit rot are detected at load time.
//
// Layout (little-endian):
//
//	magic   [8]byte  "FRNKDS1\n"
//	schema  uint32 length + JSON bytes
//	n       uint32 worker count
//	ids     per worker: uint16 length + bytes
//	perProt codes []uint16, raw []float64
//	perObs  values []float64
//	crc32   uint32 (IEEE, of everything after the magic)
const binaryMagic = "FRNKDS1\n"

// ErrCorrupt is returned when a binary snapshot fails its integrity check.
var ErrCorrupt = errors.New("dataset: corrupt binary snapshot")

type binarySchema struct {
	Protected []Attribute `json:"protected"`
	Observed  []Attribute `json:"observed"`
}

// ReadBinary loads a dataset from the legacy binary form, verifying the
// trailing checksum. It returns ErrCorrupt (possibly wrapped) on any
// integrity failure.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrCorrupt, err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)

	var schemaLen uint32
	if err := binary.Read(in, binary.LittleEndian, &schemaLen); err != nil {
		return nil, fmt.Errorf("%w: schema length: %v", ErrCorrupt, err)
	}
	if schemaLen > 1<<20 {
		return nil, fmt.Errorf("%w: absurd schema length %d", ErrCorrupt, schemaLen)
	}
	schemaJSON := make([]byte, schemaLen)
	if _, err := io.ReadFull(in, schemaJSON); err != nil {
		return nil, fmt.Errorf("%w: schema: %v", ErrCorrupt, err)
	}
	var bs binarySchema
	if err := json.Unmarshal(schemaJSON, &bs); err != nil {
		return nil, fmt.Errorf("%w: schema json: %v", ErrCorrupt, err)
	}
	schema := &Schema{Protected: bs.Protected, Observed: bs.Observed}
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	var n uint32
	if err := binary.Read(in, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: worker count: %v", ErrCorrupt, err)
	}
	if n == 0 || n > 1<<28 {
		return nil, fmt.Errorf("%w: absurd worker count %d", ErrCorrupt, n)
	}
	d := &memSource{
		schema:       schema,
		n:            int(n),
		ids:          make([]string, n),
		codes:        make([][]uint16, len(schema.Protected)),
		rawProtected: make([][]float64, len(schema.Protected)),
		observed:     make([][]float64, len(schema.Observed)),
	}
	for i := range d.ids {
		var idLen uint16
		if err := binary.Read(in, binary.LittleEndian, &idLen); err != nil {
			return nil, fmt.Errorf("%w: id length: %v", ErrCorrupt, err)
		}
		buf := make([]byte, idLen)
		if _, err := io.ReadFull(in, buf); err != nil {
			return nil, fmt.Errorf("%w: id bytes: %v", ErrCorrupt, err)
		}
		d.ids[i] = string(buf)
	}
	for a, attr := range schema.Protected {
		d.codes[a] = make([]uint16, n)
		if err := binary.Read(in, binary.LittleEndian, d.codes[a]); err != nil {
			return nil, fmt.Errorf("%w: codes: %v", ErrCorrupt, err)
		}
		card := attr.Cardinality()
		for _, c := range d.codes[a] {
			if int(c) >= card {
				return nil, fmt.Errorf("%w: code %d out of range for %s", ErrCorrupt, c, attr.Name)
			}
		}
		d.rawProtected[a] = make([]float64, n)
		if err := binary.Read(in, binary.LittleEndian, d.rawProtected[a]); err != nil {
			return nil, fmt.Errorf("%w: raw values: %v", ErrCorrupt, err)
		}
	}
	for a := range schema.Observed {
		d.observed[a] = make([]float64, n)
		if err := binary.Read(in, binary.LittleEndian, d.observed[a]); err != nil {
			return nil, fmt.Errorf("%w: observed values: %v", ErrCorrupt, err)
		}
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrCorrupt, err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, got, want)
	}
	return FromSource(d)
}
