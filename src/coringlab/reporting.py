"""Uniform check reports shared by the verification entry points."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, **detail) -> Check:
        c = Check(name, bool(ok), detail)
        self.checks.append(c)
        return c

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]
