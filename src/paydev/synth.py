"""Deterministic synthetic commit histories with known labels.

Each developer gets personal behavior parameters drawn from a class
profile (weekend rate, preferred hour, hour spread, employer-email rate);
commits then sample local civil times from those parameters. The preset
`separable` keeps the class hour supports apart, `overlapping` mixes them
enough that classifiers stay clearly below perfect.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date, timedelta

import numpy as np

EPOCH = date(1970, 1, 1)


@dataclass(frozen=True)
class CommitRecord:
    """One commit's metadata, as the generator makes it (see
    ingest.Commits.from_records). lines_added/lines_deleted are -1 when the
    commit touched only binary content."""

    sha: str
    author_name: str
    author_email: str
    timestamp_utc: int
    tz_offset_minutes: int
    lines_added: int
    lines_deleted: int
    message: str


@dataclass(frozen=True)
class ClassProfile:
    weekend_beta: tuple[float, float]  # per-dev weekend probability ~ Beta(a, b)
    hour_mu_range: tuple[float, float]  # per-dev preferred hour ~ U(lo, hi)
    hour_sigma: float  # per-commit spread around the preferred hour
    corp_email_prob: float  # per-commit chance of using the employer domain


@dataclass(frozen=True)
class SynthSpec:
    n_devs: int = 200
    hired_share: float = 0.5
    commits_low: int = 120
    commits_high: int = 280
    start: date = date(2016, 1, 4)
    n_days: int = 364
    corp_domain: str = "mozilla.com"
    home_domain: str = "example.org"
    tz_offsets: tuple[int, ...] = (-480, -300, -60, 0, 60, 120, 330)
    hired: ClassProfile = field(
        default_factory=lambda: ClassProfile(
            weekend_beta=(1.0, 40.0),
            hour_mu_range=(10.0, 15.0),
            hour_sigma=1.4,
            corp_email_prob=0.006,
        )
    )
    volunteer: ClassProfile = field(
        default_factory=lambda: ClassProfile(
            weekend_beta=(20.0, 20.0),
            hour_mu_range=(19.0, 23.0),
            hour_sigma=1.6,
            corp_email_prob=0.0005,
        )
    )


OVERLAPPING_PROFILES = {
    "hired": ClassProfile(
        weekend_beta=(2.0, 9.0),
        hour_mu_range=(10.0, 18.0),
        hour_sigma=3.2,
        corp_email_prob=0.006,
    ),
    "volunteer": ClassProfile(
        weekend_beta=(4.5, 6.5),
        hour_mu_range=(13.0, 22.0),
        hour_sigma=3.6,
        corp_email_prob=0.0005,
    ),
}


def spec_with_profiles(spec: SynthSpec, preset: str) -> SynthSpec:
    if preset == "separable":
        return spec
    if preset == "overlapping":
        return replace(spec, **OVERLAPPING_PROFILES)
    raise ValueError(f"unknown profile preset {preset!r}")


def _civil_to_epoch_seconds(d: date, hour, minute, second) -> int:
    return (d - EPOCH).days * 86400 + hour * 3600 + minute * 60 + second


def generate_synthetic_corpus(spec: SynthSpec, seed: int):
    """Returns (records, labels): a list of CommitRecords sorted by
    (timestamp, sha), and labels as {identity_id: status}.

    identity_id matches what identity merging produces for the developer
    (the lexicographically smallest email they used).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed)]))
    days = [spec.start + timedelta(days=i) for i in range(spec.n_days)]
    weekdays = [d for d in days if d.weekday() < 5]
    weekends = [d for d in days if d.weekday() >= 5]

    records: list[CommitRecord] = []
    labels: dict[str, str] = {}
    sha_counter = 0
    n_hired = int(round(spec.n_devs * spec.hired_share))

    for dev in range(spec.n_devs):
        hired = dev < n_hired
        profile = spec.hired if hired else spec.volunteer
        name = f"Dev {dev:04d}"
        home = f"dev{dev:04d}@{spec.home_domain}"
        corp = f"dev{dev:04d}@{spec.corp_domain}"
        offset = int(spec.tz_offsets[int(rng.integers(len(spec.tz_offsets)))])

        weekend_p = float(rng.beta(*profile.weekend_beta))
        hour_mu = float(rng.uniform(*profile.hour_mu_range))
        n_commits = int(rng.integers(spec.commits_low, spec.commits_high + 1))

        emails_used = set()
        for _ in range(n_commits):
            pool = weekends if rng.random() < weekend_p else weekdays
            day = pool[int(rng.integers(len(pool)))]
            hour = int(round(rng.normal(hour_mu, profile.hour_sigma))) % 24
            minute = int(rng.integers(60))
            second = int(rng.integers(60))
            local_seconds = _civil_to_epoch_seconds(day, hour, minute, second)
            ts_utc = local_seconds - offset * 60

            email = corp if rng.random() < profile.corp_email_prob else home
            emails_used.add(email)
            sha = f"{sha_counter:040x}"
            sha_counter += 1
            records.append(
                CommitRecord(
                    sha=sha,
                    author_name=name,
                    author_email=email,
                    timestamp_utc=ts_utc,
                    tz_offset_minutes=offset,
                    lines_added=int(rng.integers(1, 400)),
                    lines_deleted=int(rng.integers(0, 200)),
                    message=f"Bug {100000 + sha_counter} - synthetic change",
                )
            )
        labels[min(emails_used)] = "hired" if hired else "volunteer"

    records.sort(key=lambda r: (r.timestamp_utc, r.sha))
    return records, labels


def write_labels_csv(labels, fileobj) -> None:
    fileobj.write("identity,status,hired_from,hired_to\n")
    for ident in sorted(labels):
        fileobj.write(f"{ident},{labels[ident]},,\n")
