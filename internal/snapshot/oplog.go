package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// The op log captures the puts that land between epoch boundaries, so a
// crash loses no acknowledged write: recovery is load-snapshot(E) +
// replay-oplog(E). Each log file belongs to exactly one snapshot epoch and
// is replaced when the next snapshot commits.
//
// Record framing is [u32 length][u32 crc32c(payload)][payload], payload =
// varint-framed key then value. A SIGKILL can tear at most the final
// record (appends are single write calls into the page cache), and a torn
// or corrupt tail fails either the length or the CRC check — ReadLog
// returns everything before it and reports how many bytes were discarded.
// Records are fsynced on Close, not per append: a kill loses nothing (the
// page cache survives the process), only a power cut can lose the unsynced
// tail, and then replay still stops at a clean record boundary.

// logMagic opens every op-log file, followed by the format version and the
// snapshot epoch the log extends.
var logMagic = [6]byte{'T', 'G', 'O', 'P', 'L', 'G'}

// Op is one logged write.
type Op struct {
	Key   string
	Value []byte
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecordLen bounds a single framed record; a length beyond it is
// treated as a torn/corrupt tail.
const maxRecordLen = 8 + maxKeyLen + maxValueLen

// Log is an append-only op log open for writing.
type Log struct {
	f     *os.File
	buf   []byte
	count int
}

// CreateLog creates (truncating) an op-log file for the given snapshot
// epoch and syncs the header so the file is identifiable even if the
// process dies before the first append.
func CreateLog(path string, epoch int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr bytes.Buffer
	hdr.Write(logMagic[:])
	writeUint(&hdr, version)
	writeUint(&hdr, uint64(epoch))
	if _, err := f.Write(hdr.Bytes()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append frames and writes one op as a single write call. The record is
// durable against process death immediately and against power loss after
// Close.
func (l *Log) Append(op Op) error {
	var payload bytes.Buffer
	writeString(&payload, op.Key)
	writeBytes(&payload, op.Value)
	l.buf = l.buf[:0]
	l.buf = binary.BigEndian.AppendUint32(l.buf, uint32(payload.Len()))
	l.buf = binary.BigEndian.AppendUint32(l.buf, crc32.Checksum(payload.Bytes(), crcTable))
	l.buf = append(l.buf, payload.Bytes()...)
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.count++
	return nil
}

// Count reports how many ops have been appended since the log was created.
func (l *Log) Count() int { return l.count }

// Close syncs and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ReadLog parses an op-log file. It returns the log's snapshot epoch, the
// ops up to the first torn or corrupt record, and the number of tail bytes
// discarded (0 for a clean log). Header corruption fails with ErrCorrupt;
// tail corruption does not — losing an unsynced final record is the
// expected crash shape, not a reason to reject the log.
func ReadLog(path string) (epoch int, ops []Op, discarded int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, 0, err
	}
	epoch, ops, discarded, derr := decodeLog(data)
	if derr != nil {
		return 0, nil, 0, fmt.Errorf("%s: %w", path, derr)
	}
	return epoch, ops, discarded, nil
}

// decodeLog parses op-log bytes; see ReadLog. It never panics on arbitrary
// input.
func decodeLog(data []byte) (epoch int, ops []Op, discarded int, err error) {
	d := &decoder{data: data}
	var m [6]byte
	d.read(m[:])
	if d.err != nil || m != logMagic {
		return 0, nil, 0, fmt.Errorf("%w: bad op-log magic", ErrCorrupt)
	}
	if v := d.uint(); d.err != nil || v != version {
		return 0, nil, 0, fmt.Errorf("%w: unsupported op-log version", ErrCorrupt)
	}
	e := d.uint()
	if d.err != nil {
		return 0, nil, 0, fmt.Errorf("%w: truncated op-log header", ErrCorrupt)
	}
	if e > maxEpoch {
		return 0, nil, 0, fmt.Errorf("%w: absurd op-log epoch %d", ErrCorrupt, e)
	}
	epoch = int(e)
	for d.remaining() > 0 {
		rest := d.remaining()
		if rest < 8 {
			return epoch, ops, rest, nil // torn frame header
		}
		length := binary.BigEndian.Uint32(d.data[d.off:])
		sum := binary.BigEndian.Uint32(d.data[d.off+4:])
		if length > maxRecordLen || int(length) > rest-8 {
			return epoch, ops, rest, nil // torn or garbage length
		}
		payload := d.data[d.off+8 : d.off+8+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			return epoch, ops, rest, nil // corrupt record
		}
		pd := &decoder{data: payload}
		key := pd.string(maxKeyLen)
		val := pd.bytes(maxValueLen)
		if pd.err != nil || pd.remaining() != 0 {
			return epoch, ops, rest, nil // framed but malformed payload
		}
		ops = append(ops, Op{Key: key, Value: val})
		d.off += 8 + int(length)
	}
	return epoch, ops, 0, nil
}
