"""Milestone callbacks that record what a communication backend reports."""


class Milestones:
    """``sent``/``done`` callbacks for ``start_chunk`` (and the phase
    backend's ``start_reduce_scatter``/``start_all_gather``) that record
    each call as ``(kind, token, now)``, in call order."""

    def __init__(self, env):
        self.env = env
        self.calls = []

    def sent(self, token):
        self.calls.append(("sent", token, self.env.now))

    def done(self, token):
        self.calls.append(("done", token, self.env.now))

    def start(self, start, chunk, token=None):
        """Call ``start(chunk, sent, done, token)``; the token defaults
        to the chunk itself.  Returns the token."""
        token = chunk if token is None else token
        start(chunk, self.sent, self.done, token)
        return token

    def times(self, kind, token):
        """When ``kind`` was called for ``token``, one entry per call."""
        return [now for called, each, now in self.calls if called == kind and each == token]
