package results

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// FuzzScanJSONL holds ScanJSONL, the line decoder runq's journal
// replay, FileStore and segstore share, to its contract on any input.
// The callback treats a line that is not valid JSON as malformed, as
// those decoders do, and fails line number failAt (0: none) with an
// error that is not malformed. The seed corpus holds a served
// queue.jsonl, a FileStore JSONL, a segment with a torn tail and input
// with CRLF and blank lines.
func FuzzScanJSONL(f *testing.F) {
	f.Add([]byte("{}\n{\"a\":1}\n"), uint8(0))
	f.Add([]byte("{}\n{\"a\n{}\n"), uint8(0))
	f.Add([]byte("{}\n\n{}\n"), uint8(3))
	errRejected := errors.New("rejected")
	f.Fuzz(func(t *testing.T, raw []byte, failAt uint8) {
		type call struct {
			lineno int
			line   string
			err    error
		}
		var calls []call
		good, err := ScanJSONL(raw, func(lineno int, line []byte) error {
			var e error
			switch {
			case lineno == int(failAt):
				e = errRejected
			case !json.Valid(line):
				e = fmt.Errorf("%w: line %d", ErrMalformedLine, lineno)
			}
			calls = append(calls, call{lineno, string(line), e})
			return e
		})

		if good < 0 || good > len(raw) {
			t.Fatalf("good = %d outside [0, %d]", good, len(raw))
		}
		if good != 0 && good != len(raw) && raw[good-1] != '\n' {
			t.Fatalf("good = %d is not at a line start", good)
		}

		// The non-blank lines of raw, numbered from 1 with blank lines
		// counted, with the offsets where they start and where the next
		// line does.
		type line struct {
			lineno      int
			text        string
			start, next int
		}
		var want []line
		off := 0
		for i, l := range bytes.Split(raw, []byte("\n")) {
			next := min(off+len(l)+1, len(raw))
			if len(bytes.TrimSpace(l)) > 0 {
				want = append(want, line{i + 1, string(l), off, next})
			}
			off = next
		}

		if len(calls) > len(want) {
			t.Fatalf("fn called %d times for %d non-blank lines", len(calls), len(want))
		}
		for k, c := range calls {
			if c.lineno != want[k].lineno || c.line != want[k].text {
				t.Fatalf("call %d got line %d %q, want line %d %q", k, c.lineno, c.line, want[k].lineno, want[k].text)
			}
			if c.err != nil && k != len(calls)-1 {
				t.Fatalf("scan went on after line %d failed", c.lineno)
			}
		}

		if len(calls) == 0 || calls[len(calls)-1].err == nil {
			if err != nil || good != len(raw) || len(calls) != len(want) {
				t.Fatalf("clean scan: good=%d err=%v after %d of %d lines, want %d, nil, all", good, err, len(calls), len(want), len(raw))
			}
			return
		}
		last := calls[len(calls)-1]
		stop := want[len(calls)-1]
		torn := errors.Is(last.err, ErrMalformedLine) && len(bytes.TrimSpace(raw[stop.next:])) == 0
		switch {
		case torn && (err != nil || good != stop.start):
			t.Fatalf("torn last line %d: good=%d err=%v, want %d, nil", stop.lineno, good, err, stop.start)
		case !torn && (err != last.err || good != 0):
			t.Fatalf("line %d failed with %v: good=%d err=%v, want 0 and that error", stop.lineno, last.err, good, err)
		}
	})
}
