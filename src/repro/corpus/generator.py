"""Seeded synthetic-corpus generation (the stand-in for the paper's 285
Play-Store apps).

``CorpusGenerator`` draws per-app styles (does this app ever check
connectivity? set timeouts? notify users?) and per-request specifics from
the rates in :mod:`repro.corpus.profiles`, then assembles complete apps —
manifests, activities, services, AsyncTasks, listener classes — via the
snippet emitters.  Every app comes with its ground-truth ledger.

Generation is deterministic per (profile.seed, app index), so the
benchmarks print identical tables run-to-run.
"""

from __future__ import annotations

import random
from typing import Iterator

from .._record import record
from ..app.apk import APK
from ..ir.builder import MethodBuilder
from ..obs import metrics as obs_metrics
from ..obs import span
from .appbuilder import AppBuilder
from .groundtruth import AppGroundTruth
from .profiles import CorpusProfile
from .snippets import (
    Backoff,
    Connectivity,
    Notification,
    RequestSpec,
    RetryLoopShape,
    inject_request,
)

#: UI callbacks to cycle through, one request per method.
_UI_METHODS = (
    "onClick",
    "onLongClick",
    "onItemClick",
    "onMenuItemClick",
    "onOptionsItemSelected",
    "onRefresh",
    "onEditorAction",
    "onQueryTextSubmit",
)
_UI_PARAMS: dict[str, list[tuple[str, str]]] = {
    "onClick": [("android.view.View", "v")],
    "onLongClick": [("android.view.View", "v")],
    "onItemClick": [("android.widget.AdapterView", "parent"), ("int", "position")],
    "onMenuItemClick": [("android.view.MenuItem", "item")],
    "onOptionsItemSelected": [("android.view.MenuItem", "item")],
    "onRefresh": [],
    "onEditorAction": [("android.widget.TextView", "tv"), ("int", "actionId")],
    "onQueryTextSubmit": [("java.lang.String", "query")],
}

#: Blocking libraries (eligible for AsyncTask wrapping and retry loops).
_BLOCKING_LIBS = frozenset({"httpurlconnection", "apache", "basichttp", "okhttp"})


@record
class AppStyle:
    """Per-app behavioural draw (the source of per-app CDF structure)."""

    libraries: list[str]
    never_connectivity: bool
    conn_miss_ratio: float
    never_timeout: bool
    timeout_miss_ratio: float
    never_retry: bool
    custom_retry: bool
    aggressive_loops: bool
    never_notification: bool
    notification_miss_ratio: float
    checks_error_types: bool
    explicit_zero_retries: bool
    checks_responses: bool
    has_service: bool
    n_requests: int


class CorpusGenerator:
    """Generates (APK, ground truth) pairs for one profile."""

    def __init__(self, profile: CorpusProfile) -> None:
        self.profile = profile

    # -- public API -----------------------------------------------------------

    def generate(self) -> list[tuple[APK, AppGroundTruth]]:
        return list(self.iter_apps())

    def iter_apps(self) -> Iterator[tuple[APK, AppGroundTruth]]:
        for index in range(self.profile.mix.n_apps):
            yield self.generate_app(index)

    def generate_app(self, index: int) -> tuple[APK, AppGroundTruth]:
        with span("corpus:generate-app", index=index):
            rng = random.Random(f"{self.profile.seed}:{index}")
            style = self._draw_style(rng)
            package = f"com.corpus.app{index:04d}"
            app = AppBuilder(package)
            truth = AppGroundTruth(package)
            builder_state = _AppAssembler(app, style, rng)
            forcing = _ForcingState()
            for i in range(style.n_requests):
                spec, in_service = self._draw_spec(rng, style, i, forcing)
                record = builder_state.place_request(spec, in_service)
                truth.requests.append(record)
            builder_state.finish()
            obs_metrics().inc("corpus.apps_generated")
            return app.build(), truth

    # -- draws ------------------------------------------------------------------

    def _draw_style(self, rng: random.Random) -> AppStyle:
        mix = self.profile.mix.probabilities()
        rates = self.profile.rates
        libraries: list[str] = []
        if rng.random() < mix["native"]:
            libraries.append(rng.choice(["httpurlconnection", "apache"]))
        for key in ("volley", "asynchttp", "basichttp", "okhttp"):
            if rng.random() < mix[key]:
                libraries.append(key)
        if not libraries:
            libraries.append(rng.choice(["httpurlconnection", "apache"]))
        never_retry = rng.random() < rates.never_retry
        return AppStyle(
            libraries=libraries,
            never_connectivity=rng.random() < rates.never_connectivity,
            conn_miss_ratio=rng.betavariate(*rates.conn_miss_beta),
            never_timeout=rng.random() < rates.never_timeout,
            timeout_miss_ratio=rng.betavariate(*rates.timeout_miss_beta),
            never_retry=never_retry,
            custom_retry=rng.random() < rates.custom_retry_logic,
            aggressive_loops=rng.random() < rates.aggressive_loop,
            never_notification=rng.random() < rates.never_notification,
            notification_miss_ratio=rng.betavariate(*rates.notification_miss_beta),
            checks_error_types=rng.random() < rates.checks_error_types,
            # Apps that explicitly zero retries are a subset of the apps
            # that touch retry APIs at all, so condition on ¬never_retry
            # and rescale to keep the unconditional rate at the Table 8
            # target.
            explicit_zero_retries=(
                not never_retry
                and rng.random()
                < rates.explicit_zero_retries / max(1e-9, 1 - rates.never_retry)
            ),
            checks_responses=rng.random() < rates.app_checks_responses,
            has_service=rng.random() < rates.app_has_service,
            n_requests=rng.randint(rates.requests_min, rates.requests_max),
        )

    def _draw_spec(
        self,
        rng: random.Random,
        style: AppStyle,
        index: int,
        forcing: "_ForcingState",
    ) -> tuple[RequestSpec, bool]:
        """Draw one request.

        The "forcing" rules anchor the app-level style flags: an app that
        is *not* in the never-checks-connectivity group must contain at
        least one guarded request (otherwise small apps with a high miss
        ratio would land in the "never" bucket by chance and inflate the
        never-rates past the drawn probabilities) — likewise for timeouts
        and notifications.  Each app also uses every library it declares
        at least once (Table 7's per-library app counts depend on it).
        """
        rates = self.profile.rates
        if index < len(style.libraries):
            library = style.libraries[index]
        else:
            library = rng.choice(style.libraries)
        in_service = style.has_service and rng.random() < rates.request_in_service

        if style.never_connectivity:
            connectivity = Connectivity.NONE
        elif not forcing.conn_guarded:
            connectivity = Connectivity.GUARDED
            forcing.conn_guarded = True
        elif rng.random() < style.conn_miss_ratio:
            connectivity = Connectivity.NONE
        else:
            connectivity = rng.choice([Connectivity.GUARDED, Connectivity.HELPER])

        if style.never_timeout:
            with_timeout = False
        elif not forcing.timeout_set:
            with_timeout = True
            forcing.timeout_set = True
        else:
            with_timeout = rng.random() >= style.timeout_miss_ratio

        http_post = rng.random() < rates.request_is_post

        retry_loop = RetryLoopShape.NONE
        backoff = Backoff.EXPONENTIAL
        with_retry = False
        retry_value = rng.choice([1, 2, 3])
        if style.custom_retry and library in _BLOCKING_LIBS and rng.random() < 0.5:
            retry_loop = rng.choice(
                [
                    RetryLoopShape.UNCONDITIONAL_EXIT,
                    RetryLoopShape.CATCH_DEPENDENT,
                    RetryLoopShape.CALLEE_CATCH,
                ]
            )
            backoff = Backoff.NONE if style.aggressive_loops else Backoff.EXPONENTIAL
        elif not style.never_retry:
            with_retry = rng.random() < 0.8
            if http_post and with_retry:
                with_retry = rng.random() < rates.explicit_retry_on_post
            if in_service and with_retry:
                # Background requests rarely get explicit retry policies;
                # the Table 8 "default behavior" share depends on it.
                with_retry = rng.random() < 0.8
        lib_has_retry = _LIB_HAS_RETRY[library]
        if (
            style.explicit_zero_retries
            and not forcing.zero_retry_placed
            and not in_service
            and lib_has_retry
            and retry_loop is RetryLoopShape.NONE
        ):
            with_retry = True
            retry_value = 0
            forcing.zero_retry_placed = True

        explicit_callback_lib = library in ("volley", "asynchttp")
        notification_forced = False
        if style.never_notification:
            notification = rng.choice([Notification.NONE, Notification.LOG])
        elif not in_service and not forcing.notified:
            notification = Notification.TOAST
            forcing.notified = True
            notification_forced = True
        elif rng.random() < style.notification_miss_ratio:
            notification = rng.choice([Notification.NONE, Notification.LOG])
        else:
            handler = rng.random() < rates.notify_via_handler
            notification = Notification.HANDLER if handler else Notification.TOAST
        # §5.2.3: explicit error callbacks attract notification code while
        # blocking catch-blocks lose it.  The forced per-app notification
        # is exempt (it anchors the app's "ever notifies" style flag).
        if not notification_forced:
            if notification in (Notification.NONE, Notification.LOG):
                if (
                    explicit_callback_lib
                    and not style.never_notification
                    and rng.random() < rates.explicit_callback_notify_boost
                ):
                    notification = Notification.TOAST
            elif (
                not explicit_callback_lib
                and rng.random() < rates.blocking_notify_drop
            ):
                notification = Notification.LOG

        use_async = (
            library == "okhttp"
            and retry_loop is RetryLoopShape.NONE
            and rng.random() < 0.4
        )

        spec = RequestSpec(
            library=library,
            http_post=http_post,
            use_async=use_async,
            connectivity=connectivity,
            with_timeout=with_timeout,
            timeout_ms=rng.choice([5000, 10000, 15000, 30000]),
            with_retry=with_retry,
            retry_value=retry_value,
            with_notification=notification,
            with_response_check=style.checks_responses,
            uses_error_types=style.checks_error_types,
            retry_loop=retry_loop,
            backoff=backoff,
            url=f"http://api.example.com/v{rng.randint(1, 4)}/data",
        )
        return spec, in_service


#: Which libraries expose retry APIs (duplicated from the library models to
#: keep the generator free of a checker import cycle; asserted in tests).
_LIB_HAS_RETRY = {
    "httpurlconnection": False,
    "apache": True,
    "volley": True,
    "okhttp": True,
    "asynchttp": True,
    "basichttp": True,
}


@record
class _ForcingState:
    """Tracks per-app forcing obligations across request draws."""

    conn_guarded: bool = False
    timeout_set: bool = False
    notified: bool = False
    zero_retry_placed: bool = False


class _AppAssembler:
    """Places requests into activities/services/AsyncTasks for one app."""

    def __init__(self, app: AppBuilder, style: AppStyle, rng: random.Random) -> None:
        self.app = app
        self.style = style
        self.rng = rng
        self._activities: list = []
        self._service = None
        self._open_methods: list[tuple[MethodBuilder, object]] = []
        self._activity_slots: list[str] = []
        self._service_slot = 0
        self._task_count = 0
        self._helper_cls = None
        self._helper_count = 0

    def _next_activity_method(self) -> MethodBuilder:
        if not self._activity_slots:
            index = len(self._activities)
            activity = self.app.activity(f"Activity{index}")
            self._activities.append(activity)
            self._activity_slots = list(_UI_METHODS)
        name = self._activity_slots.pop(0)
        activity = self._activities[-1]
        body = activity.method(name, params=_UI_PARAMS[name])
        self._open_methods.append((body, activity))
        return body

    def _next_service_method(self) -> MethodBuilder:
        # One service per background request: keeps each request's guard
        # analysis independent (a check in a shared entry method would
        # shadow sibling requests through the shared call chain).
        self._service_slot += 1
        service = self.app.service(f"SyncService{self._service_slot}")
        body = service.method(
            "onStartCommand",
            params=[("android.content.Intent", "intent"), ("int", "flags")],
            return_type="int",
        )
        self._open_methods.append((body, service))
        return body

    def _place_via_helper(self, caller: MethodBuilder, spec: RequestSpec, user: bool):
        """Emit the request into an ApiClient helper method and call it
        from ``caller`` — the service-layer indirection real apps have,
        exercising the interprocedural side of every analysis."""
        if self._helper_cls is None:
            self._helper_cls = self.app.new_class("ApiClient")
        self._helper_count += 1
        helper_body = self._helper_cls.method(f"request{self._helper_count}")
        record = inject_request(
            self.app, helper_body, spec, user_initiated=user, background=not user
        )
        helper_body.ret()
        self._helper_cls.add(helper_body)
        api = caller.new(
            self._helper_cls.name, f"api{self._helper_count}"
        )
        caller.call(api, f"request{self._helper_count}")
        return record

    def place_request(self, spec: RequestSpec, in_service: bool):
        use_async_task = (
            not in_service
            and spec.library in _BLOCKING_LIBS
            and spec.retry_loop is RetryLoopShape.NONE
            and self.rng.random() < 0.4
        )
        use_helper = (
            spec.retry_loop is RetryLoopShape.NONE
            and not use_async_task
            and self.rng.random() < 0.25
        )
        if in_service:
            body = self._next_service_method()
            if use_helper:
                record = self._place_via_helper(body, spec, user=False)
            else:
                record = inject_request(
                    self.app, body, spec, user_initiated=False, background=True
                )
        elif use_helper:
            body = self._next_activity_method()
            record = self._place_via_helper(body, spec, user=True)
        elif use_async_task:
            body = self._next_activity_method()
            self._task_count += 1
            task_name = f"FetchTask{self._task_count}"
            task = self.app.async_task(task_name)
            task_body = task.method("doInBackground")
            record = inject_request(
                self.app, task_body, spec, user_initiated=True
            )
            task_body.ret()
            task.add(task_body)
            post = task.method("onPostExecute", params=[("java.lang.String", "r")])
            post.ret()
            task.add(post)
            instance = body.new(f"{self.app.package}.{task_name}", f"task{self._task_count}")
            body.call(instance, "execute")
        else:
            body = self._next_activity_method()
            record = inject_request(self.app, body, spec, user_initiated=True)
        return record

    def finish(self) -> None:
        """Close all open method bodies."""
        for body, owner in self._open_methods:
            if body.sig.return_type == "int":
                body.ret(0)
            else:
                body.ret()
            owner.add(body)
        if not self._activities:
            # Every app has a main activity even if all requests are
            # background ones.
            activity = self.app.activity("MainActivity")
            body = activity.method("onCreate", params=[("android.os.Bundle", "b")])
            body.ret()
            activity.add(body)
