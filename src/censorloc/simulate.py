"""Synthetic world and measurement generator with known ground truth.

Everything is a deterministic function of the parameters (seed included).
Each AS owns a distinct /16. The AS population splits into vantage ASes,
censor ASes, one destination AS per URL, and a shared transit pool; routes
pick their middle hops from a small per-URL corridor of transit ASes,
mirroring how real paths converge toward a destination.

Every (vantage, url) pair has a stable primary route plus alternates; on any
later day the pair deviates onto a random alternate with churn_prob and
otherwise rides the primary. Censors are spliced into the primary route of
one measuring vantage per censored URL, so an interfering AS is observed
through a stable route while the deviations supply the interference-free
counter-evidence.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, datetime, time, timezone
from typing import Any, Iterator, NamedTuple, Sequence

from .model import (
    AnomalyType,
    CensorClass,
    CensorVerdict,
    InputError,
    format_timestamp,
    validate_asn,
)

ALL_ANOMALIES = tuple(AnomalyType)

_COUNTRY_POOL = ("US", "CN", "DE", "RU", "BR", "IN", "GB", "FR", "JP", "TR", "IR", "KR")
_CORRIDOR_SIZE = 4
_BASE_ASN = 1001
_MEASUREMENT_STREAM_SALT = 0x5DEECE66D


class SimulationError(InputError):
    """Raised when a world cannot be built from the given parameters."""


@dataclass(frozen=True)
class SimParams:
    seed: int = 0
    n_ases: int = 20
    n_vantage: int = 3
    n_urls: int = 5
    n_censors: int = 1
    path_pool_size: int = 3
    churn_prob: float = 0.2
    noise_prob: float = 0.0
    days: int = 30
    anomalies: tuple[AnomalyType, ...] = ALL_ANOMALIES
    nonresponsive_prob: float = 0.0
    active_day_range: tuple[int, int] | None = None
    start_date: date = date(2016, 5, 2)

    def __post_init__(self) -> None:
        if self.n_ases < 1 or self.n_urls < 1 or self.days < 1:
            raise SimulationError("n_ases, n_urls and days must all be >= 1")
        if self.start_date.toordinal() + self.days - 1 > date.max.toordinal():
            raise SimulationError("start_date plus days runs past the year 9999")
        if not 1 <= self.n_vantage <= self.n_ases:
            raise SimulationError("n_vantage must be in [1, n_ases]")
        if self.n_censors < 0:
            raise SimulationError("n_censors cannot be negative")
        if self.path_pool_size < 1:
            raise SimulationError("path_pool_size must be >= 1")
        for name in ("churn_prob", "noise_prob", "nonresponsive_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be within [0, 1]")
        if not self.anomalies:
            raise SimulationError("at least one anomaly type is required")
        if self.active_day_range is not None:
            lo, hi = self.active_day_range
            if not 1 <= lo <= hi <= self.days:
                raise SimulationError("active_day_range must satisfy 1 <= lo <= hi <= days")


class AsSpec(NamedTuple):
    asn: int
    octets: tuple[int, int]  # the AS owns a.b.0.0/16
    country: str


class CensorPolicy(NamedTuple):
    asn: int
    anomaly: AnomalyType
    urls: frozenset[str]
    active_days: tuple[int, int]

    def censors(self, url: str, anomaly: AnomalyType, day: int) -> bool:
        return (
            anomaly is self.anomaly
            and url in self.urls
            and self.active_days[0] <= day <= self.active_days[1]
        )

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "asn": self.asn,
            "anomaly": self.anomaly.value,
            "urls": sorted(self.urls),
            "active_days": list(self.active_days),
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "CensorPolicy":
        return cls(
            asn=validate_asn(obj["asn"]),
            anomaly=AnomalyType.parse(obj["anomaly"]),
            urls=frozenset(obj["urls"]),
            active_days=tuple(obj["active_days"]),
        )


class SyntheticWorld(NamedTuple):
    ases: tuple[AsSpec, ...]
    vantage_asns: tuple[int, ...]
    urls: tuple[str, ...]
    url_dst: dict[str, int]
    url_dst_ip: dict[str, str]
    url_vantages: dict[str, tuple[int, ...]]
    pools: dict[tuple[int, str], tuple[tuple[int, ...], ...]]
    censors: tuple[CensorPolicy, ...]


class GroundTruth(NamedTuple):
    censors: tuple[CensorPolicy, ...]
    countries: dict[int, str]
    path_log: dict[str, tuple[int, ...]]  # record id -> true AS path


def generate_world(params: SimParams) -> SyntheticWorld:
    """Build topology, routing pools and censor policies for the parameters."""
    rng = random.Random(params.seed)
    if params.n_ases > 39000:
        raise SimulationError("n_ases too large for the /16-per-AS address plan")
    reserved = params.n_vantage + params.n_censors + params.n_urls
    n_transit = params.n_ases - reserved
    if n_transit < 2:
        raise SimulationError(
            f"n_ases={params.n_ases} leaves {max(n_transit, 0)} transit ASes after "
            f"{params.n_vantage} vantage + {params.n_censors} censor + "
            f"{params.n_urls} destination ASes; need at least 2"
        )

    countries = [rng.choice(_COUNTRY_POOL) for _ in range(params.n_ases)]
    if params.n_ases >= 2 and len(set(countries)) < 2:
        countries[1] = next(c for c in _COUNTRY_POOL if c != countries[0])
    ases = tuple(
        AsSpec(_BASE_ASN + i, (101 + i // 256, i % 256), country)
        for i, country in enumerate(countries)
    )
    by_asn = {a.asn: a for a in ases}

    shuffled = [a.asn for a in ases]
    rng.shuffle(shuffled)
    vantage = tuple(sorted(shuffled[: params.n_vantage]))
    censor_asns = shuffled[params.n_vantage : params.n_vantage + params.n_censors]
    dst_asns = shuffled[
        params.n_vantage + params.n_censors : params.n_vantage + params.n_censors + params.n_urls
    ]
    transit = sorted(shuffled[reserved:])

    urls = tuple(f"http://site{k:03d}.example.com/" for k in range(params.n_urls))
    url_dst: dict[str, int] = {}
    url_dst_ip: dict[str, str] = {}
    corridors: dict[str, list[int]] = {}
    url_vantages: dict[str, tuple[int, ...]] = {}
    # Wide vantage sets are trimmed so per-bucket variable counts stay small.
    per_url = params.n_vantage if params.n_vantage <= 4 else params.n_vantage - 2
    for url, dst in zip(urls, dst_asns):
        url_dst[url] = dst
        o1, o2 = by_asn[dst].octets
        url_dst_ip[url] = f"{o1}.{o2}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
        corridors[url] = rng.sample(transit, min(_CORRIDOR_SIZE, len(transit)))
        url_vantages[url] = tuple(sorted(rng.sample(vantage, per_url)))

    # a path's middle is 2 or 3 distinct corridor ASes in order, so a pool
    # larger than this count of routes can never fill: sampling is skipped
    c = min(_CORRIDOR_SIZE, len(transit))
    routes = sum(math.perm(c, k) for k in range(min(2, c), min(3, c) + 1))
    pools: dict[tuple[int, str], list[tuple[int, ...]]] = {}
    for url in urls:
        dst = url_dst[url]
        corridor = corridors[url]
        for v in url_vantages[url]:
            pool: list[tuple[int, ...]] = []
            seen: set[tuple[int, ...]] = set()
            attempts = 0
            limit = 200 * params.path_pool_size + 200 if params.path_pool_size <= routes else 0
            while len(pool) < params.path_pool_size and attempts < limit:
                attempts += 1
                k = rng.randint(min(2, len(corridor)), min(3, len(corridor)))
                middle = rng.sample(corridor, k)
                path = (v, *middle, dst)
                if path not in seen:
                    seen.add(path)
                    pool.append(path)
            if len(pool) < params.path_pool_size:
                raise SimulationError(
                    f"cannot build {params.path_pool_size} distinct paths "
                    f"from AS{v} to {url} (only {len(pool) if limit else routes} constructible)"
                )
            pools[(v, url)] = pool

    active = params.active_day_range or (1, params.days)
    # Censors take disjoint URL sets; two interferers on one URL would ride
    # each other's detected paths and never separate.
    if params.n_censors > params.n_urls:
        raise SimulationError("need at least one URL per censor")
    urls_per_censor = max(1, round(0.15 * params.n_urls))
    if params.n_censors:
        urls_per_censor = max(1, min(urls_per_censor, params.n_urls // params.n_censors))
        chosen = rng.sample(urls, urls_per_censor * params.n_censors)
    policies = []
    for i, asn in enumerate(censor_asns):
        anomaly = rng.choice(params.anomalies)
        touched = chosen[i * urls_per_censor : (i + 1) * urls_per_censor]
        for url in touched:
            v = rng.choice(url_vantages[url])
            primary = pools[(v, url)][0]
            # splice the censor in front of the destination on the primary route
            pools[(v, url)][0] = primary[:-1] + (asn, primary[-1])
        policies.append(
            CensorPolicy(asn=asn, anomaly=anomaly, urls=frozenset(touched), active_days=active)
        )
    policies.sort(key=lambda p: (p.asn, p.anomaly.value))

    return SyntheticWorld(
        ases=ases,
        vantage_asns=vantage,
        urls=urls,
        url_dst=url_dst,
        url_dst_ip=url_dst_ip,
        url_vantages=url_vantages,
        pools={pair: tuple(pool) for pair, pool in pools.items()},
        censors=tuple(policies),
    )


def _synth_traceroute(
    rng: random.Random,
    octets: dict[int, tuple[int, int]],
    path: tuple[int, ...],
    dst_ip: str,
    nonresponsive_prob: float,
) -> dict[str, Any]:
    hops: list[dict[str, Any]] = []
    ttl = 0
    for asn in path:
        o1, o2 = octets[asn]
        for _ in range(rng.randint(1, 2)):
            ttl += 1
            hops.append({"ttl": ttl, "addr": f"{o1}.{o2}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"})
    hops[-1]["addr"] = dst_ip
    if nonresponsive_prob > 0:
        for hop in hops[:-1]:
            if rng.random() < nonresponsive_prob:
                hop["addr"] = "*"
    return {"completed": True, "hops": hops}


def generate_measurements(
    world: SyntheticWorld, params: SimParams
) -> Iterator[tuple[dict[str, Any], tuple[int, ...]]]:
    """Yield each measurement record (ingest JSONL schema) with its true path,
    in record-id order, as it is drawn.

    Day 1 always rides the primary route. On later days each (vantage, url)
    pair deviates onto a random alternate with churn_prob, otherwise it is
    back on the primary. All of a day's anomaly records for the pair share
    one path and carry three identical traceroutes over it. Verdicts are
    true exactly when an active censor sits on the path, then flipped with
    noise_prob.
    """
    rng = random.Random(params.seed ^ _MEASUREMENT_STREAM_SALT)
    by_url_anomaly: dict[tuple[str, AnomalyType], list[CensorPolicy]] = {}
    for policy in world.censors:
        for url in policy.urls:
            by_url_anomaly.setdefault((url, policy.anomaly), []).append(policy)

    octets = {a.asn: a.octets for a in world.ases}
    counter = 0
    for day in range(1, params.days + 1):
        stamp = format_timestamp(
            datetime.combine(
                date.fromordinal(params.start_date.toordinal() + day - 1),
                time(12, 0, 0),
                tzinfo=timezone.utc,
            )
        )
        for url in world.urls:
            for v in world.url_vantages[url]:
                pool = world.pools[(v, url)]
                if day == 1 or len(pool) == 1:
                    path = pool[0]
                elif rng.random() < params.churn_prob:
                    path = pool[rng.randrange(1, len(pool))]
                else:
                    path = pool[0]
                traceroute = _synth_traceroute(
                    rng, octets, path, world.url_dst_ip[url], params.nonresponsive_prob
                )
                for anomaly in params.anomalies:
                    censored = any(
                        policy.asn in path and policy.censors(url, anomaly, day)
                        for policy in by_url_anomaly.get((url, anomaly), ())
                    )
                    detected = censored ^ (rng.random() < params.noise_prob)
                    yield {
                        "record_id": f"r{counter:07d}",
                        "vantage_asn": v,
                        "url": url,
                        "dst_ip": world.url_dst_ip[url],
                        "anomaly": anomaly.value,
                        "detected": detected,
                        "timestamp": stamp,
                        "traceroutes": [traceroute, traceroute, traceroute],
                    }, path
                    counter += 1


def ground_truth(world: SyntheticWorld, path_log: dict[str, tuple[int, ...]]) -> GroundTruth:
    return GroundTruth(world.censors, {a.asn: a.country for a in world.ases}, path_log)


# ---------------------------------------------------------------------------
# serialization of simulator outputs


def pfx2as_text(world: SyntheticWorld) -> str:
    return "".join(f"{a.octets[0]}.{a.octets[1]}.0.0\t16\t{a.asn}\n" for a in world.ases)


def as_metadata_text(world: SyntheticWorld) -> str:
    lines = ["asn,country,name"]
    for a in world.ases:
        lines.append(f"{a.asn},{a.country},SIM-AS{a.asn}")
    return "\n".join(lines) + "\n"


def ground_truth_obj(truth: GroundTruth) -> dict[str, Any]:
    return {
        "censors": [c.to_json_obj() for c in truth.censors],
        "countries": {str(asn): cc for asn, cc in sorted(truth.countries.items())},
        "paths": truth.path_log,  # json's sort_keys orders it
    }


def ground_truth_from_obj(obj: dict[str, Any]) -> GroundTruth:
    return GroundTruth(
        censors=tuple(CensorPolicy.from_json_obj(c) for c in obj["censors"]),
        countries={int(asn): cc for asn, cc in obj["countries"].items()},
        path_log={rid: tuple(path) for rid, path in obj["paths"].items()},
    )


# ---------------------------------------------------------------------------
# scoring against ground truth


def _score(matched: int, predicted: int, truth_count: int) -> dict[str, Any]:
    return {
        "matched": matched,
        "predicted": predicted,
        "true_censors": truth_count,
        "precision": matched / predicted if predicted else "n/a",
        "recall": matched / truth_count if truth_count else "n/a",
    }


def evaluate(verdicts: Sequence[CensorVerdict], truth: GroundTruth) -> dict[str, Any]:
    """Scorecard of predicted censors against planted ones, per anomaly and
    overall. Precision is "n/a" when nothing was predicted."""
    truth_pairs = {(c.asn, c.anomaly) for c in truth.censors}
    verdict_by_pair = {(v.asn, v.anomaly): v.censor_class for v in verdicts}
    predicted = {pair for pair, klass in verdict_by_pair.items() if klass is CensorClass.CENSOR}
    matched = truth_pairs & predicted
    potential_only = sorted(
        (asn, anomaly.value)
        for asn, anomaly in truth_pairs - predicted
        if verdict_by_pair.get((asn, anomaly)) is CensorClass.POTENTIAL_CENSOR
    )
    false_positives = sorted(
        (asn, anomaly.value) for asn, anomaly in predicted - truth_pairs
    )
    anomalies = sorted({a.value for _, a in truth_pairs} | {a.value for _, a in predicted})
    per_anomaly = {}
    for value in anomalies:
        t = {p for p in truth_pairs if p[1].value == value}
        p = {q for q in predicted if q[1].value == value}
        per_anomaly[value] = _score(len(t & p), len(p), len(t))
    overall = _score(len(matched), len(predicted), len(truth_pairs))
    overall["potential_only"] = [[asn, value] for asn, value in potential_only]
    overall["false_positives"] = [[asn, value] for asn, value in false_positives]
    return {"overall": overall, "per_anomaly": per_anomaly}
