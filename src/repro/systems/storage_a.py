"""Storage-A-mini: the anonymized commercial storage OS.

Paper traits reproduced:

* structure-based mapping with min/max columns, uniformly enforced -
  but the adjustment is silent (74 silent violations, zero crashes and
  zero early terminations in Table 5a: the defensive coding of §5.2);
* Figure 1: the iSCSI initiator name only matches registered
  initiators case-sensitively; an uppercase letter silently breaks
  share lookup (75 rounds of support communication in the real case);
* Figure 3(a)/5(a): ``log.filesize`` is a 32-bit integer; 9000000000
  silently wraps, "9G" parses as 9 bytes;
* the unit zoo of Table 7 (B/KB/MB/GB sizes, us/ms/s/min/h times)
  mitigated by unit-suffix naming (§5.2: "cleanup.msec",
  "takeover.sec");
* feature-gate control dependencies whose violations are silently
  ignored (83 silent ignorances - the largest column);
* proprietary library APIs imported into the knowledge base
  (wafl_reserve, ontap_schedule_scrub, netapp_register_port).
"""

from __future__ import annotations

from repro.core.accuracy import (
    truth_basic,
    truth_ctrl_dep,
    truth_range,
    truth_semantic,
)
from repro.inject.ar import DirectiveDialect
from repro.knowledge import ApiSpec, ArgFact, SemanticType, Unit
from repro.systems.base import FunctionalTest, ParamSpec, SubjectSystem
from repro.systems.registry import register

# -- proprietary API runtime emulation ------------------------------------
# The knowledge base learns these via `custom_knowledge` (§2.2.2:
# "we also imported its proprietary library APIs"); the runtime needs
# matching implementations.

from repro.runtime.builtins import register as _register_builtin


@_register_builtin("wafl_reserve")
def _wafl_reserve(interp, args, loc):
    size = args[0] if args and isinstance(args[0], int) else 0
    if size <= 0 or size > (1 << 40):
        return -1
    return 0


@_register_builtin("ontap_schedule_scrub")
def _ontap_schedule_scrub(interp, args, loc):
    hours = args[0] if args and isinstance(args[0], int) else 0
    return 0 if hours > 0 else -1


@_register_builtin("netapp_register_port")
def _netapp_register_port(interp, args, loc):
    port = args[0] if args and isinstance(args[0], int) else -1
    rc = interp.os.try_bind(port)
    if rc < 0:
        interp.errno = -rc
        return -1
    return 0


STORAGE_MAIN = r"""
// storage-a-mini (anonymized commercial storage OS)
int log_filesize = 1048576;
int log_rotate_count = 8;
int nvram_buffer = 65536;
int raid_stripe_kb = 64;
int wafl_cache_mb = 512;
int snapshot_reserve_gb = 1;
int iscsi_max_connections = 64;
int nfs_xfer_size = 32768;
int autosupport_poll_usec = 500000;
int cleanup_msec = 200;
int takeover_sec = 30;
int heartbeat_sec = 5;
int dedupe_schedule_min = 60;
int scrub_interval_hour = 24;
int iscsi_enable = 0;
int nfs_enable = 1;
int cifs_enable = 0;
int autosupport_enable = 1;
int cluster_enable = 0;
int cifs_share_hidden = 0;
char *iscsi_initiator_name = "iqn.2013-01.com.example:host1";
char *autosupport_mailhost = "localhost";
char *log_dir = "/var/log";
char *audit_logfile = "/var/log/audit.log";
char *admin_mode = "full";

char *log_buffer;
char *nvram_pool;
int iscsi_sessions = 0;

struct opt_int { char *name; int *var; int def; int min; int max; };
struct opt_str { char *name; char **var; };
struct opt_bool { char *name; int *var; };

struct opt_int int_options[] = {
    { "log.filesize", &log_filesize, 1048576, 4096, 1073741824 },
    { "log.rotate.count", &log_rotate_count, 8, 1, 100 },
    { "nvram.buffer", &nvram_buffer, 65536, 4096, 16777216 },
    { "raid.stripe.kb", &raid_stripe_kb, 64, 4, 1024 },
    { "wafl.cache.mb", &wafl_cache_mb, 512, 64, 16384 },
    { "snapshot.reserve.gb", &snapshot_reserve_gb, 1, 0, 1 },
    { "iscsi.max.connections", &iscsi_max_connections, 64, 1, 1024 },
    { "nfs.tcp.xfersize", &nfs_xfer_size, 32768, 8192, 1048576 },
    { "autosupport.poll.usec", &autosupport_poll_usec, 500000, 1000, 10000000 },
    { "cleanup.msec", &cleanup_msec, 200, 10, 60000 },
    { "takeover.sec", &takeover_sec, 30, 1, 600 },
    { "heartbeat.sec", &heartbeat_sec, 5, 1, 60 },
    { "dedupe.schedule.min", &dedupe_schedule_min, 60, 1, 1440 },
    { "scrub.interval.hour", &scrub_interval_hour, 24, 1, 168 },
};

struct opt_str str_options[] = {
    { "iscsi.initiator.name", &iscsi_initiator_name },
    { "autosupport.mailhost", &autosupport_mailhost },
    { "log.dir", &log_dir },
    { "audit.logfile", &audit_logfile },
    { "security.admin.mode", &admin_mode },
};

struct opt_bool bool_options[] = {
    { "iscsi.enable", &iscsi_enable },
    { "nfs.enable", &nfs_enable },
    { "cifs.enable", &cifs_enable },
    { "autosupport.enable", &autosupport_enable },
    { "cluster.enable", &cluster_enable },
    { "cifs.share.hidden", &cifs_share_hidden },
};

int parse_onoff(char *key, char *value) {
    if (strcasecmp(value, "on") == 0) { return 1; }
    if (strcasecmp(value, "off") == 0) { return 0; }
    // Uniform explicit rejection, naming the option (good practice).
    fprintf(stderr, "option %s: expected on|off, got '%s'\n", key, value);
    exit(2);
    return 0;
}

int apply_int_option(char *key, char *value) {
    int i;
    for (i = 0; i < 14; i++) {
        if (strcasecmp(key, int_options[i].name) == 0) {
            // atoi keeps the legacy behaviour: "9G" reads as 9.
            int v = atoi(value);
            if (v < int_options[i].min) { v = int_options[i].min; }
            if (v > int_options[i].max) { v = int_options[i].max; }
            *int_options[i].var = v;  // silent adjustment
            return 1;
        }
    }
    return 0;
}

int apply_str_option(char *key, char *value) {
    int i;
    for (i = 0; i < 5; i++) {
        if (strcasecmp(key, str_options[i].name) == 0) {
            *str_options[i].var = value;
            return 1;
        }
    }
    return 0;
}

int apply_bool_option(char *key, char *value) {
    int i;
    for (i = 0; i < 6; i++) {
        if (strcasecmp(key, bool_options[i].name) == 0) {
            *bool_options[i].var = parse_onoff(key, value);
            return 1;
        }
    }
    return 0;
}

int apply_option(char *key, char *value) {
    if (apply_int_option(key, value)) { return 0; }
    if (apply_str_option(key, value)) { return 0; }
    if (apply_bool_option(key, value)) { return 0; }
    return 0;  // unknown options ignored (forward compatibility)
}

int read_config(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "storage: cannot read options file %s\n", path);
        exit(2);
    }
    char *line = fgets(fp);
    while (line != NULL) {
        char *trimmed = str_trim(line);
        if (strlen(trimmed) > 0 && trimmed[0] != '#') {
            char *key = str_token(trimmed, 0);
            char *value = str_token(trimmed, 1);
            if (key != NULL && value != NULL) {
                apply_option(key, value);
            }
        }
        line = fgets(fp);
    }
    fclose(fp);
    return 0;
}

int validate_admin_mode() {
    if (strcasecmp(admin_mode, "full") != 0) {
        if (strcasecmp(admin_mode, "readonly") != 0) {
            if (strcasecmp(admin_mode, "none") != 0) {
                fprintf(stderr, "option security.admin.mode: invalid value "
                        "'%s', using 'full'\n", admin_mode);
                admin_mode = "full";
            }
        }
    }
    return 0;
}

int init_wafl() {
    // Everything allocation-related is defensively checked: Storage-A
    // has zero crash entries in Table 5a.
    log_buffer = malloc(log_filesize);
    if (log_buffer == NULL) {
        log_buffer = malloc(4096);
    }
    nvram_pool = malloc(nvram_buffer);
    if (nvram_pool == NULL) {
        nvram_pool = malloc(4096);
    }
    wafl_reserve(wafl_cache_mb * 1048576);
    wafl_reserve(snapshot_reserve_gb * 1073741824);
    wafl_reserve(raid_stripe_kb * 1024);
    ontap_schedule_scrub(scrub_interval_hour);
    return 0;
}

int init_protocols() {
    if (iscsi_enable != 0) {
        netapp_register_port(3260);
        if (iscsi_max_connections > 512) {
            syslog(5, "iscsi: large connection table");
        }
        iscsi_sessions = iscsi_max_connections;
        if (strlen(iscsi_initiator_name) == 0) {
            iscsi_sessions = 0;
        }
    }
    if (nfs_enable != 0) {
        netapp_register_port(2049);
        char *xfer_buf = malloc(nfs_xfer_size);
        if (xfer_buf == NULL) {
            nfs_xfer_size = 8192;
        }
    }
    if (cifs_enable != 0) {
        netapp_register_port(445);
        if (cifs_share_hidden != 0) {
            syslog(6, "cifs: administrative shares hidden");
        }
    }
    return 0;
}

int init_services() {
    if (autosupport_enable != 0) {
        if (gethostbyname(autosupport_mailhost) == NULL) {
            syslog(4, "autosupport: mailhost unreachable, queuing messages");
        }
        int poll = autosupport_poll_usec;
        if (poll > 1000000) { poll = 1000000; }
        usleep(poll);
    }
    if (cluster_enable != 0) {
        int hb = heartbeat_sec;
        if (hb > 2) { hb = 2; }
        sleep(hb);
        int take = takeover_sec;
        if (take > 2) { take = 2; }
        sleep(take);
    }
    int naptime = cleanup_msec;
    if (naptime > 500) { naptime = 500; }
    sleep_ms(naptime);
    int dedupe_window = dedupe_schedule_min * 60;
    int scrub_window = scrub_interval_hour * 3600;
    if (!is_directory(log_dir)) {
        fprintf(stderr, "option log.dir: '%s' is not a directory, "
                "logging to console\n", log_dir);
    }
    void *audit = fopen(audit_logfile, "w");
    if (audit == NULL) {
        fprintf(stderr, "option audit.logfile: cannot open '%s'\n",
                audit_logfile);
    } else {
        fwrite_str(audit, "audit start\n");
        fclose(audit);
    }
    return dedupe_window + scrub_window;
}

int handle_iscsi_connect(char *name) {
    if (iscsi_enable == 0) {
        send_response("iscsi: protocol not licensed/enabled");
        return 1;
    }
    // Figure 1: registered initiators are matched case-SENSITIVELY;
    // names must be all lowercase to ever match.
    if (strcmp(name, iscsi_initiator_name) == 0) {
        send_response("iscsi: session established");
        return 0;
    }
    send_response("iscsi: storage share not recognized");
    return 1;
}

int serve() {
    char *req = recv_request();
    while (req != NULL) {
        if (strncmp(req, "ISCSI CONNECT ", 14) == 0) {
            handle_iscsi_connect(req + 14);
        } else if (strncmp(req, "NFS MOUNT ", 10) == 0) {
            if (nfs_enable != 0) {
                send_response(sprintf("nfs: mounted %s xfer=%d",
                                      str_token(req, 2), nfs_xfer_size));
            } else {
                send_response("nfs: protocol disabled");
            }
        } else if (strcmp(req, "STATUS") == 0) {
            send_response(sprintf("ok mode=%s cache=%dMB",
                                  admin_mode, wafl_cache_mb));
        } else {
            send_response("error: unknown command");
        }
        req = recv_request();
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: storage <options-file>\n");
        return 2;
    }
    read_config(argv[1]);
    validate_admin_mode();
    init_wafl();
    init_protocols();
    init_services();
    serve();
    return 0;
}
"""

ANNOTATIONS = """
{ @STRUCT = int_options
  @PAR = [opt_int, 1]
  @VAR = [opt_int, 2]
  @MIN = [opt_int, 4]
  @MAX = [opt_int, 5] }
{ @STRUCT = str_options
  @PAR = [opt_str, 1]
  @VAR = [opt_str, 2] }
{ @STRUCT = bool_options
  @PAR = [opt_bool, 1]
  @VAR = [opt_bool, 2] }
"""

DEFAULT_CONFIG = """\
# storage-a-mini options
log.filesize 1048576
log.rotate.count 8
nvram.buffer 65536
raid.stripe.kb 64
wafl.cache.mb 512
snapshot.reserve.gb 1
iscsi.max.connections 64
nfs.tcp.xfersize 32768
autosupport.poll.usec 500000
cleanup.msec 200
takeover.sec 30
heartbeat.sec 5
dedupe.schedule.min 60
scrub.interval.hour 24
iscsi.enable on
nfs.enable on
cifs.enable off
autosupport.enable on
cluster.enable off
cifs.share.hidden off
iscsi.initiator.name iqn.2013-01.com.example:host1
autosupport.mailhost localhost
log.dir /var/log
audit.logfile /var/log/audit.log
security.admin.mode full
"""

MANUAL = {
    "log.filesize": "log.filesize <bytes>: 4096..1073741824.",
    "log.rotate.count": "log.rotate.count: 1..100.",
    "nvram.buffer": "nvram.buffer <bytes>.",
    "raid.stripe.kb": "raid.stripe.kb <KB>: 4..1024.",
    "wafl.cache.mb": "wafl.cache.mb <MB>: 64..16384.",
    "snapshot.reserve.gb": "snapshot.reserve.gb <GB>: 0..1.",
    "iscsi.max.connections": "iscsi.max.connections: 1..1024.",
    "nfs.tcp.xfersize": "nfs.tcp.xfersize <bytes>: 8192..1048576.",
    "autosupport.poll.usec": "autosupport.poll.usec <microseconds>: 1000..10000000.",
    "cleanup.msec": "cleanup.msec <milliseconds>: 10..60000.",
    "takeover.sec": "takeover.sec <seconds>: 1..600.",
    "heartbeat.sec": "heartbeat.sec <seconds>: 1..60.",
    "dedupe.schedule.min": "dedupe.schedule.min <minutes>: 1..1440.",
    "scrub.interval.hour": "scrub.interval.hour <hours>.",
    "iscsi.enable": "iscsi.enable on|off.",
    "nfs.enable": "nfs.enable on|off.",
    "cifs.enable": "cifs.enable on|off.",
    "autosupport.enable": "autosupport.enable on|off.",
    "cluster.enable": "cluster.enable on|off.",
    "iscsi.initiator.name": (
        "iscsi.initiator.name <iqn>: must be all lowercase. "
        "See also the interoperability guide."
    ),
    "autosupport.mailhost": "autosupport.mailhost <host>.",
    "log.dir": "log.dir <directory>.",
    "audit.logfile": "audit.logfile <path>.",
    "security.admin.mode": "security.admin.mode full|readonly|none.",
    # cifs.share.hidden undocumented (and its cifs.enable dependency).
}


def _tests() -> list[FunctionalTest]:
    return [
        FunctionalTest(
            name="status",
            requests=["STATUS"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("ok mode="),
            duration=0.5,
        ),
        FunctionalTest(
            name="iscsi_connect",
            requests=["ISCSI CONNECT iqn.2013-01.com.example:host1"],
            # A cleanly disabled protocol is correct behaviour; only a
            # rejected session on an enabled protocol is a failure.
            oracle=lambda r: r
            in (
                ["iscsi: session established"],
                ["iscsi: protocol not licensed/enabled"],
            ),
            duration=2.0,
        ),
        FunctionalTest(
            name="nfs_mount",
            requests=["NFS MOUNT /vol/data"],
            oracle=lambda r: len(r) == 1
            and (r[0].startswith("nfs: mounted") or r[0] == "nfs: protocol disabled"),
            duration=1.5,
        ),
    ]


def _custom_knowledge() -> list[ApiSpec]:
    return [
        ApiSpec("wafl_reserve", args=[ArgFact(0, SemanticType.SIZE, Unit.BYTES)]),
        ApiSpec(
            "ontap_schedule_scrub",
            args=[ArgFact(0, SemanticType.TIME, Unit.HOURS)],
        ),
        ApiSpec("netapp_register_port", args=[ArgFact(0, SemanticType.PORT)]),
    ]


# int_options rows: (config name, decoder slug, effective variable,
# extra truth).  The table's min/max columns give every row a range
# truth; the unit-suffixed names carry the Table 7 unit zoo.
_INTS = [
    ("log.filesize", "size", "log_filesize",
     (truth_semantic("log.filesize", "SIZE"),)),
    ("log.rotate.count", "int", "log_rotate_count", ()),
    ("nvram.buffer", "size", "nvram_buffer",
     (truth_semantic("nvram.buffer", "SIZE"),)),
    ("raid.stripe.kb", "int", "raid_stripe_kb",
     (truth_semantic("raid.stripe.kb", "SIZE"),)),
    ("wafl.cache.mb", "int", "wafl_cache_mb",
     (truth_semantic("wafl.cache.mb", "SIZE"),)),
    ("snapshot.reserve.gb", "int", "snapshot_reserve_gb",
     (truth_semantic("snapshot.reserve.gb", "SIZE"),)),
    ("iscsi.max.connections", "int", "iscsi_max_connections", ()),
    ("nfs.tcp.xfersize", "size", "nfs_xfer_size",
     (truth_semantic("nfs.tcp.xfersize", "SIZE"),)),
    ("autosupport.poll.usec", "int", "autosupport_poll_usec",
     (truth_semantic("autosupport.poll.usec", "TIME"),)),
    ("cleanup.msec", "int", "cleanup_msec",
     (truth_semantic("cleanup.msec", "TIME"),)),
    ("takeover.sec", "int", "takeover_sec",
     (truth_semantic("takeover.sec", "TIME"),)),
    ("heartbeat.sec", "int", "heartbeat_sec",
     (truth_semantic("heartbeat.sec", "TIME"),)),
    ("dedupe.schedule.min", "int", "dedupe_schedule_min", ()),
    ("scrub.interval.hour", "int", "scrub_interval_hour",
     (truth_semantic("scrub.interval.hour", "TIME"),)),
]

# bool_options rows: (config name, effective variable).  on/off is a
# two-value range; the stored representation is an int.
_BOOLS = [
    ("iscsi.enable", "iscsi_enable"),
    ("nfs.enable", "nfs_enable"),
    ("cifs.enable", "cifs_enable"),
    ("autosupport.enable", "autosupport_enable"),
    ("cluster.enable", "cluster_enable"),
    ("cifs.share.hidden", "cifs_share_hidden"),
]

# str_options rows: (config name, effective variable, extra truth).
_STRS = [
    ("iscsi.initiator.name", "iscsi_initiator_name",
     (truth_range("iscsi.initiator.name"),)),
    ("autosupport.mailhost", "autosupport_mailhost",
     (truth_semantic("autosupport.mailhost", "HOSTNAME"),)),
    ("log.dir", "log_dir", (truth_semantic("log.dir", "DIRECTORY"),)),
    ("audit.logfile", "audit_logfile",
     (truth_semantic("audit.logfile", "FILE"),)),
    ("security.admin.mode", "admin_mode",
     (truth_range("security.admin.mode"),)),
]


@register("storage_a")
def build() -> SubjectSystem:
    return SubjectSystem(
        name="storage_a",
        display_name="Storage-A",
        description="Anonymized commercial storage OS miniature",
        sources={"storage.c": STORAGE_MAIN},
        annotations=ANNOTATIONS,
        dialect=DirectiveDialect(),
        config_path="/etc/storage/options.conf",
        default_config=DEFAULT_CONFIG,
        params=[
            ParamSpec(
                name,
                decode=decode,
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "int"), truth_range(name)) + extra,
            )
            for name, decode, var, extra in _INTS
        ]
        + [
            ParamSpec(
                name,
                decode="bool",
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "int"), truth_range(name)),
            )
            for name, var in _BOOLS
        ]
        + [
            ParamSpec(
                name,
                decode="string",
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "string"),) + extra,
            )
            for name, var, extra in _STRS
        ],
        tests=_tests(),
        extra_truth=[
            truth_ctrl_dep("iscsi.max.connections", "iscsi.enable"),
            truth_ctrl_dep("iscsi.initiator.name", "iscsi.enable"),
            truth_ctrl_dep("nfs.tcp.xfersize", "nfs.enable"),
            truth_ctrl_dep("cifs.share.hidden", "cifs.enable"),
            truth_ctrl_dep("autosupport.mailhost", "autosupport.enable"),
            truth_ctrl_dep("autosupport.poll.usec", "autosupport.enable"),
            truth_ctrl_dep("heartbeat.sec", "cluster.enable"),
            truth_ctrl_dep("takeover.sec", "cluster.enable"),
        ],
        custom_knowledge=_custom_knowledge(),
        proprietary=True,
        confidential_counts=True,
    )
