package artifact

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"
)

// FuzzArtifactCodec exercises the integrity frame every blob passes
// through (frame/unframe) and the queue's record codec (the JSON Job
// and FailedJob inside the frame). Properties:
//
//  1. round trip: unframe(frame(p)) == p for any payload, and a
//     pending or dead-letter record with a hex affinity and arbitrary
//     payload decodes to what was encoded;
//  2. robustness: unframe and the pending-record and dead-letter
//     readers never panic on arbitrary bytes (framed or not), they
//     return an error or a record;
//  3. no false accepts: corrupting any byte of a framed payload is
//     detected.
//
// Regression seeds live under testdata/fuzz/FuzzArtifactCodec.
func FuzzArtifactCodec(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("payload"))
	f.Add(blobMagic)                   // magic alone: truncated header
	f.Add(frame([]byte("framed")))     // valid blob fed back as input
	f.Add(frame([]byte{}))             // minimal valid blob
	f.Add(bytes.Repeat([]byte{0}, 41)) // header-sized garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		// Round trip.
		framed := frame(data)
		back, err := unframe(framed)
		if err != nil {
			t.Fatalf("unframe(frame(p)) failed: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip changed payload: %q -> %q", data, back)
		}
		// Tamper detection: flipping any single byte must be caught.
		if len(framed) > 0 {
			i := len(data) % len(framed)
			tampered := append([]byte(nil), framed...)
			tampered[i] ^= 0x01
			if got, err := unframe(tampered); err == nil && !bytes.Equal(got, data) {
				t.Fatalf("tampered blob (byte %d) accepted with altered payload", i)
			}
		}
		// Robustness: arbitrary bytes as a framed blob error cleanly.
		if payload, err := unframe(data); err == nil {
			// Rare but legal: data happened to be a valid frame. Then it
			// must round trip through frame again bit-exactly.
			if !bytes.Equal(frame(payload), data) {
				t.Fatal("valid frame did not re-encode identically")
			}
		}
		// Queue records: encode, decode, compare. Affinities are hex
		// hashes in practice; payloads are arbitrary bytes.
		aff := hex.EncodeToString(data)
		raw, err := encodeRecord(Job{Affinity: aff, Payload: data})
		if err != nil {
			t.Fatalf("encode pending record: %v", err)
		}
		var job Job
		if err := decodeRecord(raw, &job); err != nil {
			t.Fatalf("pending record round trip: %v", err)
		}
		if job.Affinity != aff || !bytes.Equal(job.Payload, data) {
			t.Fatal("pending record round trip changed fields")
		}
		at := time.Unix(0, int64(len(data))*1e9+7)
		raw, err = encodeRecord(FailedJob{Error: aff, Attempts: len(data), At: at, Payload: data})
		if err != nil {
			t.Fatalf("encode dead-letter record: %v", err)
		}
		var fj FailedJob
		if err := decodeRecord(raw, &fj); err != nil {
			t.Fatalf("dead-letter record round trip: %v", err)
		}
		if fj.Error != aff || fj.Attempts != len(data) || !fj.At.Equal(at) || !bytes.Equal(fj.Payload, data) {
			t.Fatal("dead-letter record round trip changed fields")
		}
		// Arbitrary bytes, raw and framed, must error or parse, never
		// panic.
		for _, in := range [][]byte{data, frame(data)} {
			_ = decodeRecord(in, new(Job))
			_ = decodeRecord(in, new(FailedJob))
		}
	})
}
