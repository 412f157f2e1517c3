package artifact

import (
	"context"
	"encoding/json"
	"fmt"
)

// Every record the store and the queue hold is the encoding/json of one
// struct inside the integrity frame. A record whose frame holds but
// whose JSON does not decode (one an older binary wrote) is never an
// error: the store reads it as a miss, and the queue dead-letters or
// keeps terminal the id it belongs to.

// PutJSON stores the JSON encoding of v under (class, key), with Put's
// best-effort semantics.
func (s *Store) PutJSON(class, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("artifact: encode %s record: %w", class, err)
	}
	return s.Put(class, key, data)
}

// GetJSON decodes the record stored under (class, key) into v. A
// payload that does not decode reads as a miss, and v is then
// unspecified.
func (s *Store) GetJSON(class, key string, v any) bool {
	data, ok := s.Get(class, key)
	return ok && json.Unmarshal(data, v) == nil
}

// GetOrBuildJSON is GetOrBuild for a JSON record: it decodes the record
// stored under (class, key) into v, building and storing it first if
// there is none. A stored payload that does not decode is rebuilt and
// replaced.
func (s *Store) GetOrBuildJSON(ctx context.Context, class, key string, v any, build func() (any, error)) error {
	encode := func() ([]byte, error) {
		r, err := build()
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	}
	data, _, err := s.GetOrBuild(ctx, class, key, encode)
	if err != nil {
		return err
	}
	if json.Unmarshal(data, v) == nil {
		return nil
	}
	if data, err = encode(); err != nil {
		return err
	}
	_ = s.Put(class, key, data)
	return json.Unmarshal(data, v)
}

// encodeRecord frames the JSON encoding of a queue record (a Job or a
// FailedJob).
func encodeRecord(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("artifact: encode queue record: %w", err)
	}
	return frame(body), nil
}

// decodeRecord verifies a framed queue record and decodes its JSON
// into v.
func decodeRecord(raw []byte, v any) error {
	body, err := unframe(raw)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
