// Package fixture exercises the errorflow analyzer. Declaring a type named
// ProtocolError activates the package, the same way importing msgplane or
// core activates a real one.
package fixture

// ProtocolError stands in for msgplane.ProtocolError.
type ProtocolError struct{ Tag int }

func (e *ProtocolError) Error() string { return "protocol violation" }

// mayFail produces the typed error on bad input.
func mayFail(n int) error {
	if n < 0 {
		return &ProtocolError{Tag: n}
	}
	return nil
}

// value returns a payload and an error.
func value() (int, error) { return 1, nil }

// dropped calls an error-returning function as a bare statement.
func dropped() {
	mayFail(1) // want "drops its error result"
}

// discarded throws errors away with the blank identifier, both the
// trailing-result form and the direct form.
func discarded() int {
	n, _ := value() // want "discarded with _"
	_ = mayFail(n)  // want "discarded with _"
	return n
}

// discardsVar launders the error through a variable first.
func discardsVar(n int) {
	err := mayFail(n)
	_ = err // want "error err is discarded with _"
}

// shadowed redeclares err in an inner scope and never reads the inner one,
// so the outer return silently loses the inner failure.
func shadowed(n int) error {
	err := mayFail(n)
	if n > 0 {
		err := mayFail(n - 1) // want "never checked on any path"
	}
	return err
}

// checked handles every error: clean.
func checked(n int) error {
	if err := mayFail(n); err != nil {
		return err
	}
	v, err := value()
	if err != nil {
		return err
	}
	return mayFail(v)
}

// fail consumes an error, standing in for the engine's poison/abort calls.
func fail(err error) error { return err }

// poisons hands the error to a poison call; the dropped result of fail
// itself is the sanctioned terminal use.
func poisons(n int) {
	if err := mayFail(n); err != nil {
		fail(err)
	}
}

// allowed documents a deliberate drop.
func allowed() {
	mayFail(3) // reptile-lint:allow errorflow best-effort probe, failure handled by the retry above
}

// Closer stands in for a module interface such as transport.Conn.
type Closer interface{ Close() error }

// droppedViaInterface drops an error a method returns through an
// interface: the checker types the call from the interface's declared
// signature.
func droppedViaInterface(c Closer) {
	c.Close() // want "call to errorflow.Closer.Close drops its error result"
}
