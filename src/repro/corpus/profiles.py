"""Statistical profiles for the synthetic evaluation corpus.

The paper's evaluation scanned 285 apps crawled from Google Play (269
closed-source + 16 open-source, Table 7).  We cannot redistribute those
binaries; instead the corpus generator synthesises apps whose *defect
mix* follows the rates the paper measured (§5.2), so that re-running
NChecker over the synthetic corpus reproduces the shape of Tables 6–8 and
Figures 8–9.  Every rate below cites the paper sentence it encodes.
"""

from __future__ import annotations

from .._record import record



@record(frozen=True)
class LibraryMix:
    """Table 7: evaluated apps per library (apps may use several)."""

    n_apps: int = 285
    native: int = 270  # HttpURLConnection + Apache HttpClient
    volley: int = 78
    asynchttp: int = 25
    basichttp: int = 18
    okhttp: int = 11

    def probabilities(self) -> dict[str, float]:
        return {
            "native": self.native / self.n_apps,
            "volley": self.volley / self.n_apps,
            "asynchttp": self.asynchttp / self.n_apps,
            "basichttp": self.basichttp / self.n_apps,
            "okhttp": self.okhttp / self.n_apps,
        }


@record(frozen=True)
class DefectRates:
    """Per-app style probabilities, each tied to a §5.2 measurement."""

    # §5.2.1: "43% of apps never check network connectivity."
    never_connectivity: float = 0.43
    # Fig 8: of the partially-checking apps, 62 % miss the check in over
    # half of their requests.  The Beta(α, β) over the per-app miss ratio
    # is skewed high because every partially-checking app has one forced
    # guarded request (see the generator), which dilutes the observed
    # ratio on small apps.
    conn_miss_beta: tuple[float, float] = (2.1, 0.75)
    # §5.2.1: "49% of apps never set timeout APIs"; Fig 8: 58 % of the
    # rest miss timeouts in over half of requests.
    never_timeout: float = 0.49
    timeout_miss_beta: tuple[float, float] = (2.0, 0.72)
    # §5.2.1: "70% of apps never set retry APIs" (among retry-lib users);
    # "10% of apps have customized retry logic."
    never_retry: float = 0.72
    custom_retry_logic: float = 0.10
    # Of custom retry loops, how many lack backoff (Fig 2's shape was
    # common enough to headline the paper's motivation).
    aggressive_loop: float = 0.5
    # §5.2.3: "57% of apps do not show any notifications for failures in
    # any user-initiated network requests"; Fig 9 CDF for the rest.
    never_notification: float = 0.57
    notification_miss_beta: tuple[float, float] = (1.2, 1.1)
    # §5.2.3: 30 % of requests with explicit error callbacks notify vs
    # 12 % without → when an app does notify, prefer the explicit path.
    notify_via_handler: float = 0.25
    # Bias: libraries with explicit error callbacks make notification code
    # natural to write (§5.2.3's 30 % vs 12 % split).
    explicit_callback_notify_boost: float = 0.30
    blocking_notify_drop: float = 0.45
    # §5.2.3: "93% of apps do not check the error types."
    checks_error_types: float = 0.07
    # §5.2.4: "75% of total network responses miss validity checks" —
    # modelled as a quarter of apps validating every response.
    app_checks_responses: float = 0.25
    # Table 8: 8 % of retry-lib apps disable retries for user requests.
    explicit_zero_retries: float = 0.08
    # Structure knobs (not directly measured; tuned so Table 8's emergent
    # service/POST over-retry rates land in the paper's range).
    app_has_service: float = 0.34
    request_in_service: float = 0.35
    request_is_post: float = 0.085
    # Developers who explicitly configure retries on a POST are rare; this
    # keeps Table 8's "98 % of POST over-retries are defaults" emergent.
    explicit_retry_on_post: float = 0.05
    requests_min: int = 2
    requests_max: int = 8


@record(frozen=True)
class CorpusProfile:
    """Everything the generator needs to synthesise one corpus."""

    mix: LibraryMix = LibraryMix()
    rates: DefectRates = DefectRates()
    seed: int = 20160418  # EuroSys'16 opening day

    def scaled(self, n_apps: int) -> "CorpusProfile":
        """A proportionally smaller corpus (for fast tests)."""
        factor = n_apps / self.mix.n_apps
        mix = LibraryMix(
            n_apps=n_apps,
            native=round(self.mix.native * factor),
            volley=round(self.mix.volley * factor),
            asynchttp=round(self.mix.asynchttp * factor),
            basichttp=round(self.mix.basichttp * factor),
            okhttp=round(self.mix.okhttp * factor),
        )
        return CorpusProfile(mix=mix, rates=self.rates, seed=self.seed)


#: The paper's evaluation corpus profile.
PAPER_PROFILE = CorpusProfile()
