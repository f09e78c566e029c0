package shard

import (
	"errors"
	"io"
	"strings"
	"testing"

	"vexsmt/pkg/vexsmt"
)

func TestDecodeResultStream(t *testing.T) {
	stream := `
{"mix":"mmhh","technique":"SMT","threads":2,"seed":7,"ipc":1.5,"counters":{"cycles":10}}

{"mix":"llll","technique":"CSMT","threads":4,"error":"boom"}
{"status":"done","error":"","completed":2,"cells":2}
{"mix":"after-terminal","technique":"SMT","threads":2}
`
	var cells []vexsmt.CellResult
	status, errMsg, err := DecodeResultStream(strings.NewReader(stream), func(c vexsmt.CellResult) {
		cells = append(cells, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != "done" || errMsg != "" {
		t.Fatalf("status %q err %q", status, errMsg)
	}
	// Blank lines skipped, reading stops at the terminal line.
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	if cells[0].Mix != "mmhh" || cells[0].IPC != 1.5 || cells[0].Counters.Cycles != 10 {
		t.Fatalf("cell 0: %+v", cells[0])
	}
	// The outer error field travels into CellResult.Err.
	if cells[1].Err != "boom" {
		t.Fatalf("cell 1 error %q, want boom", cells[1].Err)
	}
}

func TestDecodeResultStreamMalformedLine(t *testing.T) {
	for name, stream := range map[string]string{
		"not-json":       `{"mix":"mmhh","technique":"SMT","threads":2}` + "\nthis is not json\n",
		"truncated-json": `{"mix":"mmhh","technique":`,
		"wrong-type":     `{"mix":42}`,
	} {
		t.Run(name, func(t *testing.T) {
			calls := 0
			_, _, err := DecodeResultStream(strings.NewReader(stream), func(vexsmt.CellResult) { calls++ })
			if err == nil {
				t.Fatal("malformed line accepted")
			}
			if !strings.Contains(err.Error(), "bad stream line") {
				t.Fatalf("unhelpful error: %v", err)
			}
		})
	}
}

// errAfterReader yields its payload, then fails every subsequent Read —
// the shape of a TCP connection dropping mid-stream.
type errAfterReader struct {
	r   io.Reader
	err error
}

func (e *errAfterReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		return n, e.err
	}
	return n, err
}

func TestDecodeResultStreamConnectionDropBetweenRecords(t *testing.T) {
	// The connection dies cleanly between two NDJSON records: the cells
	// already read were delivered, but the decode must surface the read
	// error — a caller treating this as a complete stream would silently
	// lose every cell after the drop.
	dropErr := errors.New("connection reset by peer")
	r := &errAfterReader{
		r: strings.NewReader(
			`{"mix":"mmhh","technique":"SMT","threads":2}` + "\n" +
				`{"mix":"llll","technique":"CSMT","threads":4}` + "\n"),
		err: dropErr,
	}
	var cells []vexsmt.CellResult
	status, _, err := DecodeResultStream(r, func(c vexsmt.CellResult) { cells = append(cells, c) })
	if !errors.Is(err, dropErr) {
		t.Fatalf("err %v, want the drop error", err)
	}
	if status != "" {
		t.Fatalf("status %q on a dropped stream, want empty", status)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells delivered before the drop, want 2", len(cells))
	}
}

func TestDecodeResultStreamConnectionDropMidLine(t *testing.T) {
	// The connection dies with a record half-written. The fragment must
	// not be delivered as a cell, and the decode must report an error —
	// either the fragment's parse failure or the read error itself; a
	// clean return would let the caller mistake a torn stream for a
	// complete one. (bufio.Scanner hands the buffered fragment to the
	// split function once the read fails, so the parse failure wins.)
	r := &errAfterReader{
		r: strings.NewReader(
			`{"mix":"mmhh","technique":"SMT","threads":2}` + "\n" +
				`{"mix":"llll","techni`), // truncated mid-record, no newline
		err: errors.New("unexpected EOF"),
	}
	calls := 0
	status, _, err := DecodeResultStream(r, func(vexsmt.CellResult) { calls++ })
	if err == nil {
		t.Fatal("torn stream decoded without error")
	}
	if status != "" {
		t.Fatalf("status %q, want empty", status)
	}
	if calls != 1 {
		t.Fatalf("onCell called %d times, want 1 (the complete record only)", calls)
	}
}

func TestDecodeResultStreamNoTerminal(t *testing.T) {
	// A stream that just stops (daemon died) reports status "" without
	// inventing an error — the caller owns that decision.
	status, _, err := DecodeResultStream(strings.NewReader(
		`{"mix":"mmhh","technique":"SMT","threads":2}`+"\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != "" {
		t.Fatalf("status %q, want empty", status)
	}
	// A failed plan's terminal line carries the failure.
	status, errMsg, err := DecodeResultStream(strings.NewReader(
		`{"status":"failed","error":"cell exploded"}`+"\n"), nil)
	if err != nil || status != "failed" || errMsg != "cell exploded" {
		t.Fatalf("status %q errMsg %q err %v", status, errMsg, err)
	}
}

// TestDecodeResultStreamLongLines: the scanner buffer grows on demand, so
// a line longer than 64 KiB still decodes, while the 1 MiB line cap still
// rejects a runaway line.
func TestDecodeResultStreamLongLines(t *testing.T) {
	long := strings.Repeat("x", 70<<10)
	var got []vexsmt.CellResult
	status, _, err := DecodeResultStream(strings.NewReader(
		`{"mix":"`+long+`","technique":"SMT","threads":2}`+"\n"+`{"status":"done"}`+"\n"),
		func(c vexsmt.CellResult) { got = append(got, c) })
	if err != nil || status != "done" {
		t.Fatalf("70 KiB line: status %q err %v", status, err)
	}
	if len(got) != 1 || got[0].Mix != long {
		t.Fatalf("70 KiB line: %d cells, want the one long cell", len(got))
	}

	huge := strings.Repeat("x", 1<<20)
	status, _, err = DecodeResultStream(strings.NewReader(
		`{"mix":"`+huge+`","technique":"SMT","threads":2}`+"\n"+`{"status":"done"}`+"\n"), nil)
	if err == nil || status != "" {
		t.Fatalf("line over 1 MiB: status %q err %v, want an error", status, err)
	}
}
