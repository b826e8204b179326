"""R2 fixture: a layer overrides submit without submit_outcomes."""


class BackendLayer:
    def submit(self, query):
        raise NotImplementedError

    def submit_outcomes(self, queries):
        raise NotImplementedError


class LopsidedLayer(BackendLayer):
    def submit(self, query):
        return query
