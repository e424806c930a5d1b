//go:build !asyncdebug

package core

import "parsim/internal/circuit"

// The checked versions are in asyncdebug.go.

func (h *history) setValid(v int64)                        { h.validTo.Store(v) }
func checkBelow(what string, v, bound int64)               {}
func (w *worker) checkOwner(what string, e circuit.ElemID) {}
func poison(evs []event)                                   {}
func checkWritten(t circuit.Time)                          {}
