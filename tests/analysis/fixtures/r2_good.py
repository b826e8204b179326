"""R2 fixture: a layer overriding submission defines submit_outcomes."""


class BackendLayer:
    def submit(self, query):
        raise NotImplementedError

    def submit_outcomes(self, queries):
        raise NotImplementedError


class CountingLayer(BackendLayer):
    def submit(self, query):
        return query

    def submit_outcomes(self, queries):
        return list(queries)


class FanOutLayer(BackendLayer):
    """Overrides only the batch entry point: single submits pass through."""

    def submit_outcomes(self, queries):
        return list(queries)


class PassthroughLayer(BackendLayer):
    """Overrides nothing submission-related: nothing required of it."""

    def describe(self):
        return "passthrough"
