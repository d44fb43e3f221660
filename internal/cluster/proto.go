package cluster

import (
	"encoding/binary"
	"fmt"
	"io"

	"ses/internal/wal"
)

// Replication wire protocol. A follower POSTs its per-shard cursors
// to /v1/replication/stream on the primary; the response is one
// long-lived chunked stream multiplexing all shards:
//
//	[1B kind][1B shard][8B a][8B b][4B len][len bytes payload]
//
// (all integers little-endian). Kinds:
//
//	'C'  checkpoint  a = checkpoint seq; payload = the shard's
//	     checkpoint (store.DecodeWALCheckpoint format). Sent when the
//	     follower's cursor predates the primary's checkpoint horizon;
//	     the follower replaces the shard's contents and resumes at
//	     cursor (a, 0).
//	'R'  record      a,b = the record's post-apply cursor (segment
//	     seq, end offset); payload = one WAL record
//	     (store.DecodeWALRecord format).
//	'H'  heartbeat   a,b = the primary's current shard position;
//	     payload = 16 bytes of backlog the follower has not been
//	     shipped yet (records, bytes) — measured by walking frame
//	     headers, so follower lag is exact, not estimated.
//
// The primary pushes: its ship loop wakes on the store's commit
// signal and sends each shard's records up to the shard's committed
// watermark, so no record leaves before its Append is acknowledged.
//
// The stream itself carries no acks (resuming is a reconnect with
// newer cursors), but follower progress does flow back on a second
// long-lived request: the follower holds one POST
// /v1/replication/ack open and writes newline-delimited streamReq
// objects onto its body — every shard past zero first, then after
// each apply only the shards whose cursor moved. The primary's ack
// tracker (see ack.go) feeds synchronous-ack waits
// (`sesd -replicate-ack N`) and the post-failover re-replication
// watermarks.
const (
	msgCheckpoint byte = 'C'
	msgRecord     byte = 'R'
	msgHeartbeat  byte = 'H'
)

// maxMsgPayload bounds a message payload; checkpoints are whole-shard
// images, so the bound is generous but still refuses garbage lengths.
const maxMsgPayload = 1 << 30

// streamMsg is one decoded replication message.
type streamMsg struct {
	kind    byte
	shard   int
	a, b    uint64
	payload []byte
}

// cursor interprets the a/b pair as a log cursor.
func (m streamMsg) cursor() wal.Cursor {
	return wal.Cursor{Seq: m.a, Off: int64(m.b)}
}

// writeMsg frames and writes one message.
func writeMsg(w io.Writer, kind byte, shard int, a, b uint64, payload []byte) error {
	var head [22]byte
	head[0] = kind
	head[1] = byte(shard)
	binary.LittleEndian.PutUint64(head[2:10], a)
	binary.LittleEndian.PutUint64(head[10:18], b)
	binary.LittleEndian.PutUint32(head[18:22], uint32(len(payload)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMsg reads one message; the payload buffer is reused across
// calls.
func readMsg(r io.Reader, buf *[]byte) (streamMsg, error) {
	var head [22]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return streamMsg{}, err
	}
	m := streamMsg{
		kind:  head[0],
		shard: int(head[1]),
		a:     binary.LittleEndian.Uint64(head[2:10]),
		b:     binary.LittleEndian.Uint64(head[10:18]),
	}
	length := binary.LittleEndian.Uint32(head[18:22])
	if length > maxMsgPayload {
		return streamMsg{}, fmt.Errorf("cluster: stream message of %d bytes exceeds limit", length)
	}
	if cap(*buf) < int(length) {
		*buf = make([]byte, length)
	}
	m.payload = (*buf)[:length]
	if _, err := io.ReadFull(r, m.payload); err != nil {
		return streamMsg{}, err
	}
	return m, nil
}

// streamReq is the POST body opening a replication stream, and one
// message of an ack stream.
type streamReq struct {
	// Node identifies the follower (for the primary's status page).
	Node string `json:"node"`
	// Cursors maps shard index (decimal string) to the follower's
	// resume cursor ("seq:off"); absent shards resume from zero.
	Cursors map[string]string `json:"cursors,omitempty"`
}
