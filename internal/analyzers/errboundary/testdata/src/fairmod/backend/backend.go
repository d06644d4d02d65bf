// Fixture package whose service calls live in Backend methods rather than
// handlers: a raw internal error returned as a backend method's error
// result still reaches the client unmapped, so rule 1 flags it there too.
package backend

import (
	"context"

	"fairmod/svc"
)

// Backend is the package's served surface; its implementations' methods
// are held to the boundary rules.
type Backend interface {
	Get(ctx context.Context, id string) (string, error)
}

type local struct{}

var _ Backend = (*local)(nil)

func (l *local) Get(ctx context.Context, id string) (string, error) { // want `never maps fairmod/svc\.ErrMissing`
	val, err := svc.Fetch(id)
	if err != nil {
		return "", err // want `backend method Get returns the raw error from fairmod/svc\.Fetch`
	}
	return val, nil
}

// lookup is a helper on the backend type with the same shape; it is a
// method of a Backend implementation, so it is checked too.
func (l *local) lookup(id string) (string, error) {
	val, err := svc.Fetch(id)
	return val, err // want `backend method lookup returns the raw error from fairmod/svc\.Fetch`
}

// other does not implement Backend: its methods are outside the boundary.
type other struct{}

func (o other) Get(id string) (string, error) {
	return svc.Fetch(id)
}

func (o other) fetch(id string) (string, error) {
	val, err := svc.Fetch(id)
	return val, err
}
