// Package prooferr defines the error taxonomy shared by the proof-system
// verifiers (plonk, stark, fri). Verification can fail for two very
// different reasons, and servers fed proofs from the network need to tell
// them apart:
//
//   - ErrMalformedProof: the proof is structurally invalid — wrong
//     collection sizes, non-canonical field encodings, trailing bytes,
//     Merkle paths of the wrong length. This is the signature of abuse or
//     corruption in transit, and is detected by explicit shape validation
//     before any cryptographic work.
//
//   - ErrProofRejected: the proof is well-formed but cryptographically
//     wrong — a Merkle path that does not authenticate, a constraint
//     equation that fails at ζ, a proof-of-work witness that misses. This
//     is the signature of a prover bug or an attempted forgery.
//
// Each verifier wraps its errors so that errors.Is(err, ErrMalformedProof)
// and errors.Is(err, ErrProofRejected) classify every rejection. As
// defense in depth, the public Verify entry points convert any panic that
// escapes the structural validation into an ErrPanicRecovered (itself
// classified as malformed) via CatchPanic; the fault-injection harness
// treats such recoveries as validation bugs, so the net should never be
// hit in practice.
package prooferr

import (
	"errors"
	"fmt"
)

// ErrMalformedProof classifies structural/shape violations in a proof.
var ErrMalformedProof = errors.New("malformed proof")

// ErrProofRejected classifies cryptographic verification failures of a
// structurally well-formed proof.
var ErrProofRejected = errors.New("proof rejected")

// ErrPanicRecovered marks an error produced by CatchPanic. Its presence in
// an error chain means a panic escaped the structural validation and was
// converted at the Verify boundary — a bug in the validation, not a normal
// rejection.
var ErrPanicRecovered = errors.New("panic during verification")

// CatchPanic is deferred at the public Verify boundaries. It converts a
// panic into an error wrapping both ErrPanicRecovered and
// ErrMalformedProof, so callers never crash on adversarial input even if
// a structural check is missing.
func CatchPanic(errp *error, scope string) {
	if r := recover(); r != nil {
		*errp = Recovered(scope, r)
	}
}

// Recovered is the error CatchPanic reports for the panic value r. A
// Verify that recovers a panic elsewhere, as the worker pool does in its
// chunks, reports it with Recovered so it reads and classifies the same.
func Recovered(scope string, r any) error {
	return fmt.Errorf("%s: %w (%v): %w", scope, ErrPanicRecovered, r, ErrMalformedProof)
}

// Class returns a short human-readable label for an error's taxonomy
// class: "malformed", "rejected", or "unclassified".
func Class(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, ErrMalformedProof):
		return "malformed"
	case errors.Is(err, ErrProofRejected):
		return "rejected"
	default:
		return "unclassified"
	}
}
