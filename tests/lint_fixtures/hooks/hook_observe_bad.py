"""Bad: observers of any name, registered through ``Simulator.observe``."""


class Sampler:
    def attach(self, cluster) -> None:
        self.cluster = cluster
        cluster.sim.observe(self._sample)

    def _sample(self, time: float) -> None:
        self.cluster.window_s = time  # expect: hook-state-write


def install(engine) -> None:
    def tick(time: float) -> None:
        engine.schedule(1.0, tick)  # expect: hook-mutating-call

    engine.observe(tick)
