// Fixture package whose Backend methods map every service error at the
// boundary: the sentinel through errors.Is, the rest to an internal error.
package backendok

import (
	"context"
	"errors"

	"fairmod/svc"
)

// Backend is the package's served surface.
type Backend interface {
	Get(ctx context.Context, id string) (string, error)
}

// statusError carries the status a mapped error answers with.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

type local struct{}

var _ Backend = local{}

func (l local) Get(ctx context.Context, id string) (string, error) {
	val, err := svc.Fetch(id)
	if err != nil {
		if errors.Is(err, svc.ErrMissing) {
			return "", &statusError{status: 404, msg: "no such id"}
		}
		return "", mapped(err)
	}
	return val, nil
}

func mapped(err error) error {
	return &statusError{status: 500, msg: err.Error()}
}
