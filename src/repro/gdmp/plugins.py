"""File-type pre/post-processing plugins.

§4.1: "successfully replicating a file from one storage location to another
one consists of the following steps: pre-processing ... actual file transfer
... post-processing ... insert the file entry into a replica catalog."  The
pre/post steps "are specific to the file formats": for Objectivity, the
destination federation must know the schema before the transfer, and the
arrived file must be attached to the local federation afterwards.  GDMP 2.0
"has been extended to handle file replication independent of the file
format" — this registry is that extension point (flat files and "Oracle
files" are the other formats the paper names).
"""

from __future__ import annotations

from typing import Protocol

from repro.gdmp.request_manager import GdmpError
from repro.objectdb.database import DatabaseFile
from repro.objectdb.federation import Federation, FederationError
from repro.storage.filesystem import StoredFile

__all__ = [
    "FileTypePlugin",
    "FlatFilePlugin",
    "ObjectivityPlugin",
    "PluginRegistry",
]


class FileTypePlugin(Protocol):
    """Pre/post hooks around a file transfer.  Both are simulation
    coroutines (they may perform timed work or remote calls)."""

    file_type: str

    def pre_process(self, site, info) -> object:
        """Prepare the destination site before the transfer (coroutine)."""
        ...

    def post_process(self, site, stored: StoredFile) -> object:
        """Integrate the arrived file at the destination (coroutine)."""
        ...


class FlatFilePlugin:
    """Format-independent replication: both steps are no-ops (§4.1: the
    pre-processing step "might even be skipped in certain cases")."""

    file_type = "flat"

    def pre_process(self, site, info):
        """No preparation needed for flat files."""
        yield from ()

    def post_process(self, site, stored: StoredFile):
        """No integration needed for flat files."""
        yield from ()


class ObjectivityPlugin:
    """Objectivity database files.

    * pre-processing: make sure the destination federation exists and knows
      the schema (object type names) the incoming file uses — carried in the
      logical file's ``schema`` attribute;
    * post-processing: attach the arrived database file to the local
      federation, inserting it into Objectivity's internal file catalog.
    """

    file_type = "objectivity"
    #: simulated cost of an attach (catalog page updates, lock acquisition)
    ATTACH_TIME = 0.2
    SCHEMA_IMPORT_TIME = 0.5

    def pre_process(self, site, info):
        """Import any missing schema types named in the file's metadata."""
        federation: Federation = site.federation
        schema_attr = ""
        if info is not None:
            schema_attr = info.attributes.get("schema", "")
        new_types = [
            t for t in schema_attr.split(";") if t and not federation.knows_type(t)
        ]
        if new_types:
            yield site.sim.timeout(self.SCHEMA_IMPORT_TIME)
            for type_name in new_types:
                federation.declare_type(type_name)
        return len(new_types)

    def post_process(self, site, stored: StoredFile):
        """Attach the arrived database file to the local federation."""
        db = stored.payload
        if not isinstance(db, DatabaseFile):
            raise GdmpError(
                f"{stored.path!r} is marked objectivity but carries no database"
            )
        yield site.sim.timeout(self.ATTACH_TIME)
        try:
            site.federation.attach(db)
        except FederationError as exc:
            raise GdmpError(f"attach failed: {exc}") from exc
        return db.name


class IndexFilePlugin(FlatFilePlugin):
    """§5.2 index files: structurally flat, but tagged so consumers can
    recognize them (the index service validates the payload itself)."""

    file_type = "object-index"


class OraclePlugin:
    """Oracle data files (§4.1 names them as a target format).

    * pre-processing: run the schema DDL named in the file's ``ddl``
      attribute against the destination's (simulated) instance — a timed
      step per statement;
    * post-processing: plug the arrived datafile into the local tablespace
      registry (transportable-tablespace import).
    """

    file_type = "oracle"
    DDL_STATEMENT_TIME = 0.05
    TABLESPACE_IMPORT_TIME = 0.5

    def pre_process(self, site, info):
        """Apply missing schema DDL at the destination instance."""
        registry = site.config.attrs.setdefault("oracle_schema", set())
        ddl = ""
        if info is not None:
            ddl = info.attributes.get("ddl", "")
        statements = [s for s in ddl.split(";") if s and s not in registry]
        if statements:
            yield site.sim.timeout(self.DDL_STATEMENT_TIME * len(statements))
            registry.update(statements)
        return len(statements)

    def post_process(self, site, stored: StoredFile):
        """Import the datafile as a transportable tablespace."""
        tablespaces = site.config.attrs.setdefault("oracle_tablespaces", {})
        name = stored.attrs.get("tablespace", stored.path.rsplit("/", 1)[-1])
        if name in tablespaces:
            raise GdmpError(f"tablespace {name!r} already imported")
        yield site.sim.timeout(self.TABLESPACE_IMPORT_TIME)
        tablespaces[name] = stored.path
        return name


class PluginRegistry:
    """file_type attribute -> plugin, with a flat-file fallback."""

    def __init__(self) -> None:
        self._plugins: dict[str, object] = {}
        self.register(FlatFilePlugin())
        self.register(ObjectivityPlugin())
        self.register(IndexFilePlugin())
        self.register(OraclePlugin())

    def register(self, plugin) -> None:
        """Register a plugin under its file_type."""
        self._plugins[plugin.file_type] = plugin

    def for_type(self, file_type: str):
        """Plugin registered for a file type; raises GdmpError when unknown."""
        try:
            return self._plugins[file_type]
        except KeyError:
            raise GdmpError(f"no plugin for file type {file_type!r}") from None

    def for_info(self, info) -> object:
        """Plugin for a logical file's catalog record (default: flat)."""
        file_type = "flat"
        if info is not None:
            file_type = info.attributes.get("filetype", "flat")
        return self.for_type(file_type)
