"""The empirical study dataset (paper §2): 21 apps, 90 NPDs.

Encodes Table 1 (the studied apps), Table 2 (representative NPDs),
Table 3 (root-cause distribution), Figure 4 (UX-impact distribution),
and the §2.3 sub-cause breakdowns, as queryable data.
"""

from __future__ import annotations

from .._record import record
from ..core.defects import Impact, RootCause


@record(frozen=True)
class StudiedApp:
    """One row of Table 1."""

    name: str
    category: str
    installs: str  # Play-Store install bracket, e.g. ">500M"


#: Table 1 — the 21 Android apps/projects of the study.
STUDIED_APPS: tuple[StudiedApp, ...] = (
    StudiedApp("Chrome", "Communication", ">500M"),
    StudiedApp("Barcode scanner", "Tools", ">100M"),
    StudiedApp("Firefox", "Communication", ">50M"),
    StudiedApp("Telegram", "Communication", ">10M"),
    StudiedApp("K9", "Communication", ">5M"),
    StudiedApp("XBMC", "Media & Video", ">1M"),
    StudiedApp("Wordpress", "Social", ">1M"),
    StudiedApp("Sipdroid", "Communication", ">1M"),
    StudiedApp("ConnectBot", "Communication", ">1M"),
    StudiedApp("NPR news", "News & Magazines", ">1M"),
    StudiedApp("Csipsimple", "Communication", ">1M"),
    StudiedApp("Signal private messenger", "Communication", ">1M"),
    StudiedApp("ChatSecure", "Communication", ">100K"),
    StudiedApp("Owncloud", "Productivity", ">100K"),
    StudiedApp("GTalkSMS", "Tools", ">50K"),
    StudiedApp("Yaxim", "Communication", ">50K"),
    StudiedApp("Jamendo Player", "Music & Audio", ">10K"),
    StudiedApp("Hacker News", "News & Magazines", ">10K"),
    StudiedApp("BombusMod", "Social", ">10K"),
    StudiedApp("Kontalk", "Communication", ">10K"),
    StudiedApp("Android Framework", "System", "built-in"),
)


@record(frozen=True)
class RepresentativeNPD:
    """One row of Table 2."""

    case_id: str
    category: str
    app: str
    description: str
    resolution: str
    impact: Impact


#: Table 2 — representative NPDs.
REPRESENTATIVE_NPDS: tuple[RepresentativeNPD, ...] = (
    RepresentativeNPD(
        "i", "Dysfunction", "Firefox",
        "The download fails due to transient network errors",
        "Add retry on connection failures", Impact.DYSFUNCTION,
    ),
    RepresentativeNPD(
        "ii", "Dysfunction", "Yaxim",
        "The sent message is lost on network failure",
        "Queue the message for re-sending", Impact.DYSFUNCTION,
    ),
    RepresentativeNPD(
        "iii", "Unfriendly UI", "Hacker News",
        "No indication if the feeds loading fails",
        "Add error message", Impact.UNFRIENDLY_UI,
    ),
    RepresentativeNPD(
        "iv", "Crash", "ChatSecure",
        "Do not handle no connection exception on login",
        "Add catch blocks", Impact.CRASH_FREEZE,
    ),
    RepresentativeNPD(
        "v", "Freeze", "Chrome",
        "Failed XMLHttpRequest on webpage freezes the WebView",
        "Cancel the request on failure", Impact.CRASH_FREEZE,
    ),
    RepresentativeNPD(
        "vi", "Battery drain", "Kontalk",
        "Frequent synchronizations in offline mode",
        "Disable synchronization in offline", Impact.BATTERY_DRAIN,
    ),
)

#: Total NPDs studied (§2.1).
TOTAL_STUDIED_NPDS = 90

#: Fig 4 — impact distribution in NPD counts (percentages in the paper:
#: 36/33/21/10 of 90).
IMPACT_CASES: dict[Impact, int] = {
    Impact.DYSFUNCTION: 32,  # 36 %
    Impact.UNFRIENDLY_UI: 30,  # 33 %
    Impact.CRASH_FREEZE: 19,  # 21 %
    Impact.BATTERY_DRAIN: 9,  # 10 %
}

#: Table 3 — root-cause case counts.
ROOT_CAUSE_CASES: dict[RootCause, int] = {
    RootCause.NO_CONNECTIVITY_CHECK: 27,  # 30 %
    RootCause.MISHANDLED_TRANSIENT: 12,  # 13 %
    RootCause.MISHANDLED_PERMANENT: 24,  # 27 %
    RootCause.MISHANDLED_SWITCH: 27,  # 30 %
}

#: §2.3 sub-cause splits (percent *within* their cause).
TRANSIENT_SUBCAUSES = {
    "No retry for time-sensitive requests": 55,
    "Over-retry": 45,
}
PERMANENT_SUBCAUSES = {
    "No timeout setting": 33,
    "Absent/Misleading failure notification": 44,
    "No validity check on network response": 23,
}
SWITCH_SUBCAUSES = {
    "No reconnection on network switch": 67,
    "No automatic failure recovery": 34,
}


def impact_distribution_percent() -> dict[Impact, int]:
    """Fig 4 percentages, recomputed from case counts."""
    return {
        impact: round(100 * count / TOTAL_STUDIED_NPDS)
        for impact, count in IMPACT_CASES.items()
    }


def root_cause_distribution_percent() -> dict[RootCause, int]:
    """Table 3 percentages, recomputed from case counts."""
    return {
        cause: round(100 * count / TOTAL_STUDIED_NPDS)
        for cause, count in ROOT_CAUSE_CASES.items()
    }
