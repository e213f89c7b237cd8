package lbsq

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// RemoteError is the typed error RemoteClient returns for a non-2xx
// server response. It carries the JSON error envelope's code and
// message; any other body (a proxy's plain-text error, say) lands in
// Message with Code 0. Match on it with errors.As:
//
//	var re *lbsq.RemoteError
//	if errors.As(err, &re) && re.Status == http.StatusUnprocessableEntity { ... }
//
// or on the session sentinels with errors.Is (a 404/410/429 response
// compares equal to ErrSessionNotFound / ErrSessionExpired /
// ErrSessionLimit).
type RemoteError struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the code field of the /v1 error envelope (the envelope
	// repeats the status, so normally Code == Status; 0 when the body
	// was not an envelope).
	Code int
	// Message is the envelope's error message, or the raw body for a
	// non-envelope response.
	Message string
}

// Error formats like "lbsq: server returned 422 Unprocessable Entity:
// <message>", preserving the historic untyped string.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("lbsq: server returned %d %s: %s",
		e.Status, http.StatusText(e.Status), strings.TrimSpace(e.Message))
}

// Is maps the session-protocol statuses onto the sentinel errors, so
// errors.Is(err, ErrSessionNotFound) works on a remote session exactly
// as on a local one.
func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrSessionNotFound:
		return e.Status == http.StatusNotFound
	case ErrSessionExpired:
		return e.Status == http.StatusGone
	case ErrSessionLimit:
		return e.Status == http.StatusTooManyRequests
	}
	return false
}

// newRemoteError builds the typed error for one non-2xx response:
// the /v1 envelope is decoded when present, anything else keeps the
// raw body as the message.
func newRemoteError(status int, body []byte) *RemoteError {
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != "" {
		return &RemoteError{Status: status, Code: env.Code, Message: env.Error}
	}
	return &RemoteError{Status: status, Message: string(body)}
}
