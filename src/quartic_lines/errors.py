"""Shared error types.

UsageError      -- caller broke a precondition (bad input, wrong field, ...).
CapabilityError -- the request is well-posed but outside desk-scale limits
                   (field past GF(2^16), a degenerate elimination): the next
                   frame is tried, a dossier flags it, the CLI exits 3; no
                   report gives the certificate level yet (ROADMAP item 13).
InconsistencyError -- the computation contradicts an invariant that should
                   hold for smooth surfaces (e.g. a non-reduced fiber cubic);
                   signals bad input geometry or an implementation bug, never
                   swallowed silently.
"""


class UsageError(ValueError):
    pass


class CapabilityError(RuntimeError):
    pass


class InconsistencyError(RuntimeError):
    pass
