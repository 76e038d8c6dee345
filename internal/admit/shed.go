package admit

import (
	"fmt"
	"io"
	"time"

	"griddles/internal/retry"
	"griddles/internal/wire"
)

// MsgShed is the shared shed-response frame type. Every GriddLeS service
// reserves 254 for it (255 is MsgError), so one codec serves all six wire
// protocols. The payload is:
//
//	i64    retry-after hint, milliseconds (>= 0)
//	string reason ("queue-full", "queue-timeout", "conn-limit")
//
// A shed is not an error about the request — the server never looked at it —
// it is an invitation to come back after the hint. Clients surface it as a
// *ShedError, which internal/retry recognizes as retryable and whose
// RetryAfter method stretches the backoff to honor the hint.
const MsgShed = 254

// MaxShedReason bounds the reason string accepted by DecodeShed, so a
// corrupt frame cannot balloon into a huge allocation.
const MaxShedReason = 256

// ShedError reports that a server refused a request under load, with a
// server-suggested retry delay.
type ShedError struct {
	// Service names the shedding service instance (may be empty on the
	// client when the server did not say).
	Service string
	// Reason is the server's shed cause.
	Reason string
	// After is the server's suggested wait before retrying.
	After time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	if e.Service != "" {
		return fmt.Sprintf("admit: %s shed request (%s): retry after %v", e.Service, e.Reason, e.After)
	}
	return fmt.Sprintf("admit: server shed request (%s): retry after %v", e.Reason, e.After)
}

// RetryAfter reports the server's hint; internal/retry discovers it
// structurally (errors.As on an interface), keeping the two packages
// decoupled.
func (e *ShedError) RetryAfter() time.Duration { return e.After }

// EncodeShed builds the MsgShed payload for err.
func EncodeShed(err *ShedError) []byte {
	after := err.After
	if after < 0 {
		after = 0
	}
	return wire.NewEncoder().I64(after.Milliseconds()).String(err.Reason).Bytes()
}

// DecodeShed parses a MsgShed payload. It tolerates hostile input: a
// negative or absurd hint clamps into [0, MaxRetryAfter], an oversized
// reason truncates, and a truncated payload is an error.
func DecodeShed(payload []byte) (*ShedError, error) {
	d := wire.NewDecoder(payload)
	afterMS := d.I64()
	reason := d.String()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("admit: bad shed payload: %w", err)
	}
	// Clamp in milliseconds, before converting: a huge afterMS would
	// overflow the Duration multiplication and sneak past a post-hoc
	// range check as a negative value.
	if afterMS < 0 {
		afterMS = 0
	} else if max := MaxRetryAfter.Milliseconds(); afterMS > max {
		afterMS = max
	}
	after := time.Duration(afterMS) * time.Millisecond
	if len(reason) > MaxShedReason {
		reason = reason[:MaxShedReason]
	}
	return &ShedError{Reason: reason, After: after}, nil
}

// RemoteError is a failure a service answered with a MsgError frame: the
// request reached a live server and the answer is final, so neither a retry
// policy nor a walk over a shard's members should ask again.
type RemoteError struct {
	// Service is the client-side prefix of the message ("gns", "gridftp").
	Service string
	// Msg is the server's error text.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return e.Service + ": " + e.Msg }

// CheckStatus maps a reply's status frame to the error it carries, for
// clients: a MsgShed frame becomes its *ShedError (a malformed one is an
// error of its own), a MsgError frame becomes a retry.Permanent
// *RemoteError prefixed with service, and any other frame is nil.
func CheckStatus(service string, typ uint8, payload []byte) error {
	switch typ {
	case MsgShed:
		shed, err := DecodeShed(payload)
		if err != nil {
			return err
		}
		return shed
	case MsgError:
		return retry.Permanent(&RemoteError{Service: service, Msg: wire.NewDecoder(payload).String()})
	}
	return nil
}

// WriteShed writes err as a MsgShed frame on w, for Serve.
func WriteShed(w io.Writer, err *ShedError) error {
	return wire.WriteFrame(w, MsgShed, EncodeShed(err))
}
