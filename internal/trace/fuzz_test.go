package trace_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"whirlpool/internal/trace"
)

// withCRC returns data with its 4-byte trailer replaced by the CRC of
// everything before it, so a change to the columns still parses.
func withCRC(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// FuzzParseWTRC feeds arbitrary bytes to the .wtrc parser, both as given
// and with the CRC trailer recomputed (which lets mutations of the
// columns past the checksum). Parsing must never panic, and a trace that
// parses must replay either all NumAccesses accesses or stop with an
// error — never end early in silence.
//
//	go test -fuzz FuzzParseWTRC -fuzztime 10s ./internal/trace/
func FuzzParseWTRC(f *testing.F) {
	data := encodeOne(f)
	f.Add(data)
	var empty bytes.Buffer
	if _, err := (&trace.LLCTrace{}).WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	for _, d := range damaged(data) {
		f.Add(d.data)
	}
	// A delta column of 0xff bytes is a run-on varint behind a valid CRC.
	bad := bytes.Clone(data)
	for i := 80; i < 90; i++ {
		bad[i] = 0xff
	}
	f.Add(withCRC(bad))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRC(data)} {
			tr, err := trace.ParseForTest(in)
			if err != nil {
				continue
			}
			cur := tr.NewCursor()
			n := 0
			for {
				if _, ok := cur.Next(); !ok {
					break
				}
				n++
			}
			if n != tr.NumAccesses() && cur.Err() == nil {
				t.Fatalf("cursor stopped after %d of %d accesses with no error", n, tr.NumAccesses())
			}
		}
	})
}
