"""Good: observers registered through ``Simulator.observe`` only read."""


class Sampler:
    def attach(self, cluster) -> None:
        self.cluster = cluster
        self.samples = []
        cluster.sim.observe(self._sample)

    def _sample(self, time: float) -> None:
        self.samples.append((time, len(self.cluster.servers)))


def install(engine, seen) -> None:
    def tick(time: float) -> None:
        seen.append(time)

    engine.observe(tick)
